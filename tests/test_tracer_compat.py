"""perfbench/tracer.py still finds every name it wraps.

The tracer replaces public functions and methods of the package by name
(`Polynomial.pow_mod`, `PrimeFieldContext.mul`, `roots_in`, ...), so
renaming or deleting one breaks traced runs while every plain run passes.
Each command here runs twice in a subprocess, under the tracer and plain:
the traced run must exit 0, write a metrics document, and write the same
report bytes as the plain one. On the cubic's verify sweep and the
quintic's frobenius sweep, counters that perfbench/check_spans.py
requires of its verify and frobenius-quintic workloads must be nonzero
(for verify, those of the splitting test, factorize, Cantor add and the
2-torsion build), so moving a kernel cannot leave one of them recording
nothing.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

COMMANDS = [
    ["verify", "x^3-2", "--bound", "200"],
    ["frobenius", "x^5-x-1", "--bound", "60"],
    ["frobenius", "x^3-2", "--bound", "300"],  # some primes split f: roots in ext_new(p, 1)
]
# counters a command's traced run must record (from perfbench/check_spans.py)
EXERCISED = {
    0: (
        "reciprocity.split.calls",
        "poly.factorize.calls",
        "jacobian.add.calls",
        "torsion.two_torsion.calls",
    ),
    1: (
        "poly.pow_mod.calls",
        "poly.roots_in.calls",
        "torsion.frobenius.calls",
        "ff.ext_new.calls",
        "ff.ext_mul.calls",
    ),
}


def test_traced_runs_exit_zero_and_match_plain_runs(tmp_path):
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), *filter(None, [path])])}
    t0 = time.perf_counter()
    for i, argv in enumerate(COMMANDS):
        metrics, traced, plain = (tmp_path / f"{i}.{name}.json" for name in ("m", "t", "p"))
        runs = [
            [str(ROOT / "perfbench" / "tracer.py"), str(metrics), "--", *argv, "-o", str(traced)],
            ["-m", "splitlaw", *argv, "-o", str(plain)],
        ]
        for args in runs:
            done = subprocess.run(
                [sys.executable, *args], env=env, capture_output=True, text=True, timeout=60
            )
            assert done.returncode == 0, (argv, done.stderr)
        layers = json.loads(metrics.read_text())
        assert isinstance(layers, dict)
        for name in EXERCISED.get(i, ()):
            assert layers[name] > 0, f"{name} recorded nothing on {argv}"
        assert traced.read_bytes() == plain.read_bytes(), argv
    elapsed = time.perf_counter() - t0
    assert elapsed < 3.0, f"the traced and plain runs took {elapsed:.2f} s"
