"""Run one `splitlaw` command in process with a span around each layer call.

    PYTHONPATH=src python3 perfbench/tracer.py METRICS.json -- verify x^3-2 --bound 100 -o r.json

The package source is not touched: the public functions of ff, poly,
jacobian, torsion, reciprocity and cli are replaced, for this process
only, by wrappers that record a span (name, start, end, parent, prime) per
call, or just count calls for the field multiplications, which are too
frequent for spans. A wrapper is bound under every name in the package
that refers to the original function, because `from .poly import
factorize` copies the binding into the importing module. Spans stay in
memory; the per-layer metrics derived from them are written to
METRICS.json when the command ends.

A span's prime is inherited from its parent, or else taken from the call's
arguments for the per-prime entry points, so all spans made for one prime
share it as their identifier.
"""

from __future__ import annotations

import json
import math
import sys
import time
from collections import defaultdict

import splitlaw
from splitlaw import cli, ff, jacobian, poly, reciprocity, torsion

NAME, START, END, PARENT, PRIME = range(5)

# metric suffixes reported for each span name
SPAN_METRICS = {
    "reciprocity.split": ("calls", "s"),
    "reciprocity.sweep": ("self_s",),
    "poly.factorize": ("calls", "self_s", "per_prime"),
    "poly.pow_mod": ("calls", "s"),
    "poly.roots_in": ("calls", "self_s"),
    "jacobian.add": ("calls", "s"),
    "torsion.two_torsion": ("calls", "self_s"),
    "torsion.frobenius": ("calls", "self_s", "per_prime"),
    "ff.ext_new": ("calls", "s"),
    "cli": ("self_s",),
}
COUNTERS = ("ff.ext_mul.calls", "ff.fp_mul.calls", "poly.pow_mod.exp_bits")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts = dict.fromkeys(COUNTERS, 0)

    def span(self, name, fn, prime_of=None):
        """`fn` wrapped to record one span per call."""
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            prime = spans[parent][PRIME] if parent is not None else None
            if prime is None and prime_of is not None:
                prime = prime_of(*args)
            record = [name, 0.0, 0.0, parent, prime]
            stack.append(len(spans))
            spans.append(record)
            record[START] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                record[END] = clock()
                stack.pop()

        return wrapper

    def counted(self, name, fn):
        """`fn` wrapped to count its calls."""
        counts = self.counts

        def wrapper(*args):
            counts[name] += 1
            return fn(*args)

        return wrapper


def _rebind(original, wrapper) -> None:
    """Replace `original` under every module-level name that refers to it."""
    for module in (splitlaw, ff, poly, jacobian, torsion, reciprocity, cli):
        for key in [k for k, v in vars(module).items() if v is original]:
            setattr(module, key, wrapper)


def install(tracer: Tracer) -> None:
    wrap = tracer.span
    _rebind(reciprocity.splits_completely,
            wrap("reciprocity.split", reciprocity.splits_completely, lambda f, p: p))
    for sweep in (reciprocity.verify_law, reciprocity.density_report, reciprocity.good_primes):
        _rebind(sweep, wrap("reciprocity.sweep", sweep))
    _rebind(poly.factorize,
            wrap("poly.factorize", poly.factorize, lambda f, *a: f.ctx.char))
    _rebind(poly.roots_in, wrap("poly.roots_in", poly.roots_in))
    _rebind(jacobian.add, wrap("jacobian.add", jacobian.add))
    _rebind(torsion.two_torsion_points,
            wrap("torsion.two_torsion", torsion.two_torsion_points, lambda C, *a: C.f.ctx.char))
    _rebind(torsion.frobenius_permutation,
            wrap("torsion.frobenius", torsion.frobenius_permutation, lambda f, p, *a: p))
    _rebind(ff.ext_new, wrap("ff.ext_new", ff.ext_new))
    _rebind(cli.run, wrap("cli", cli.run))

    timed_pow_mod = wrap("poly.pow_mod", poly.Polynomial.pow_mod)
    counts = tracer.counts

    def pow_mod(self, e, modulus):
        counts["poly.pow_mod.exp_bits"] += e.bit_length()
        return timed_pow_mod(self, e, modulus)

    poly.Polynomial.pow_mod = pow_mod
    ff.ExtFieldContext.mul = tracer.counted("ff.ext_mul.calls", ff.ExtFieldContext.mul)
    ff.PrimeFieldContext.mul = tracer.counted("ff.fp_mul.calls", ff.PrimeFieldContext.mul)


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, 0 < q <= 100."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics from the recorded spans and counters."""
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] is not None:
            child_time[s[PARENT]] += s[END] - s[START]

    calls = defaultdict(int)
    total = defaultdict(float)  # outermost spans of a name only, no double count
    self_time = defaultdict(float)
    prime_time = defaultdict(float)  # outermost spans of each prime
    for i, s in enumerate(spans):
        name, duration = s[NAME], s[END] - s[START]
        calls[name] += 1
        self_time[name] += duration - child_time[i]
        parent = s[PARENT]
        ancestor = parent
        while ancestor is not None and spans[ancestor][NAME] != name:
            ancestor = spans[ancestor][PARENT]
        if ancestor is None:
            total[name] += duration
        if s[PRIME] is not None and (parent is None or spans[parent][PRIME] != s[PRIME]):
            prime_time[s[PRIME]] += duration

    primes = len(prime_time)
    metrics: dict[str, float] = {}
    for name, kinds in SPAN_METRICS.items():
        for kind in kinds:
            if kind == "calls":
                value = calls[name]
            elif kind == "s":
                value = total[name]
            elif kind == "self_s":
                value = self_time[name]
            else:
                value = calls[name] / primes if primes else 0.0
            metrics[f"{name}.{kind}"] = value
    per_prime_ms = [t * 1e3 for t in prime_time.values()] or [0.0]
    metrics["reciprocity.prime_ms.p50"] = _percentile(per_prime_ms, 50)
    metrics["reciprocity.prime_ms.p99"] = _percentile(per_prime_ms, 99)
    metrics.update(tracer.counts)
    return metrics


def main(argv: list[str]) -> int:
    out, sep, *args = argv
    if sep != "--":
        raise SystemExit("usage: tracer.py METRICS.json -- SPLITLAW_ARGS...")
    tracer = Tracer()
    install(tracer)
    status = cli.main(args)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(layer_metrics(tracer), fh, sort_keys=True)
    return status


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
