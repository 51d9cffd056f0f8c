"""Command-line front end: parsing, dispatch, and JSON/CSV/text reports.

Every invocation emits a single report envelope whose config echoes the
subcommand's own parsed options (the seed included), so any number in a
report can be reproduced from the report alone. Options that change no
content are left out: the command, which the envelope names, the format and
destination, --stamp, which generated_at records, and --workers, which only
schedules the work. The envelope's revision numbers its layout. Envelopes
are serialized with sorted keys and no timestamp by default, making
byte-identical output a property of the configuration; pass --stamp to
record wall-clock time at the cost of that reproducibility.

Exit codes: 0 on success (including a failing inclusion test, which is a
valid answer), 1 on usage or input errors, 2 when a verify sweep finds a
law violation, 3 when an internal check fails (errors.INTERNAL_ERRORS, or
a ValueError in the work at one prime, which reads no user input). The
theorem says 2 cannot happen, so that exit code is a loud bug report. Exit
3 writes no report, only one stderr line, which names the prime and its
derived seed when the failure was in the work at one prime.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import datetime
import io
import json
import os
import sys
from fractions import Fraction

from . import __version__, ff, jacobian, reciprocity, torsion
from .errors import INTERNAL_ERRORS, PolynomialSyntaxError, SplitlawError
from .poly import IntegerPolynomial, Polynomial, SplittingType, factorize
from .reciprocity import DEFAULT_SEED

SEED_ENV_VAR = "SPLITLAW_SEED"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VIOLATION = 2
EXIT_INTERNAL = 3

REPORT_REVISION = 2
# parsed options that the config echo leaves out, as they change no content
UNECHOED = frozenset({"command", "fmt", "output", "stamp", "workers"})


# ---------------------------------------------------------------------------
# Polynomial text format
# ---------------------------------------------------------------------------


def parse_polynomial(text: str) -> IntegerPolynomial:
    """Parse "c0,c1,..." (ascending) or sparse symbolic "x^3 - 2" input.

    Whitespace-insensitive; accepts the unicode minus sign. Errors carry
    the character position of the offending token.
    """
    s = text.replace("−", "-")
    if "," in s:
        return _parse_coeff_list(s)
    return _parse_symbolic(s)


def _parse_coeff_list(s: str) -> IntegerPolynomial:
    coeffs = []
    pos = 0
    for part in s.split(","):
        token = part.strip()
        try:
            coeffs.append(int(token))
        except ValueError:
            raise PolynomialSyntaxError(
                f"expected an integer coefficient, got {token!r}", position=pos
            ) from None
        pos += len(part) + 1
    return IntegerPolynomial(coeffs)


def _parse_symbolic(s: str) -> IntegerPolynomial:
    terms: dict[int, int] = {}
    i, n = 0, len(s)

    def skip_ws(j: int) -> int:
        while j < n and s[j].isspace():
            j += 1
        return j

    def read_int(j: int) -> tuple[int, int]:
        start = j
        while j < n and s[j].isdigit():
            j += 1
        if j == start:
            raise PolynomialSyntaxError("expected digits", position=start)
        return int(s[start:j]), j

    i = skip_ws(i)
    if i == n:
        raise PolynomialSyntaxError("empty polynomial", position=0)
    first = True
    while i < n:
        sign = 1
        if s[i] in "+-":
            sign = -1 if s[i] == "-" else 1
            i = skip_ws(i + 1)
        elif not first:
            raise PolynomialSyntaxError(
                f"expected '+' or '-', got {s[i]!r}", position=i
            )
        if i >= n:
            raise PolynomialSyntaxError("dangling sign", position=n)
        coeff = None
        if s[i].isdigit():
            coeff, i = read_int(i)
            i = skip_ws(i)
            if i < n and s[i] == "*":
                i = skip_ws(i + 1)
                if i >= n or s[i] != "x":
                    raise PolynomialSyntaxError("expected 'x' after '*'", position=i)
        exp = 0
        if i < n and s[i] == "x":
            exp = 1
            i = skip_ws(i + 1)
            if i < n and s[i] == "^":
                i = skip_ws(i + 1)
                exp, i = read_int(i)
                i = skip_ws(i)
        elif coeff is None:
            raise PolynomialSyntaxError(
                f"expected a term, got {s[i]!r}", position=i
            )
        terms[exp] = terms.get(exp, 0) + sign * (1 if coeff is None else coeff)
        i = skip_ws(i)
        first = False
    coeffs = [0] * (max(terms) + 1)
    for exp, c in terms.items():
        coeffs[exp] = c
    return IntegerPolynomial(coeffs)


# ---------------------------------------------------------------------------
# JSON building blocks
# ---------------------------------------------------------------------------


def _poly_json(f: IntegerPolynomial) -> dict:
    return {"text": str(f), "coefficients": list(f.coeffs)}


def _fraction_json(q: Fraction | None) -> dict | None:
    if q is None:
        return None
    return {
        "numerator": q.numerator,
        "denominator": q.denominator,
        "value": float(q),
    }


def _field_poly_json(f: Polynomial) -> list:
    """Coefficient array; prime-field values are ints, extension values lists."""
    return [c if isinstance(c, int) else list(c) for c in f.coeffs]


def _splitting_json(st) -> list[list[int]]:
    return [[d, m] for d, m in st.pairs]


def _record_json(r) -> dict:
    """A record's fields by name, a splitting type as its pairs, a fraction exactly."""
    out = {}
    for field in dataclasses.fields(r):
        value = getattr(r, field.name)
        if isinstance(value, SplittingType):
            value = _splitting_json(value)
        elif isinstance(value, Fraction):
            value = _fraction_json(value)
        out[field.name] = value
    return out


# ---------------------------------------------------------------------------
# Subcommand payloads: each returns (payload, records_key, fieldnames, exit)
# ---------------------------------------------------------------------------


def _reduce_mod(f: IntegerPolynomial, p: int) -> Polynomial:
    """f mod p, refused when it vanishes identically there."""
    fbar = f.reduce_mod(p)
    if fbar.is_zero:
        raise SplitlawError(f"polynomial vanishes identically mod {p}")
    return fbar


def _cmd_factor(args: argparse.Namespace, polys: list[IntegerPolynomial]):
    (f,) = polys
    p = args.prime
    fbar = _reduce_mod(f, p)
    with reciprocity.at_prime(args.seed, p) as seed:
        fact = factorize(fbar, seed)
    st = fact.splitting_type()
    factors = [
        {
            "coefficients": _field_poly_json(poly),
            "degree": poly.degree,
            "multiplicity": mult,
            "text": str(poly),
        }
        for poly, mult in fact.factors
    ]
    payload = {
        "polynomial": _poly_json(f),
        "p": p,
        "splitting_type": _splitting_json(st),
        "all_linear": st.all_linear,
        "squarefree": st.squarefree,
        "factors": factors,
    }
    fields = ["coefficients", "degree", "multiplicity", "text"]
    return payload, "factors", fields, EXIT_OK


def _cmd_torsion(args: argparse.Namespace, polys: list[IntegerPolynomial]):
    (f,) = polys
    p = args.prime
    fbar = _reduce_mod(f, p)
    curve = jacobian.HyperellipticCurve(fbar)
    with reciprocity.at_prime(args.seed, p) as seed:
        sub = torsion.two_torsion_points(curve, seed=seed)
    elements = [
        {"u": _field_poly_json(D.u), "v": _field_poly_json(D.v)}
        for D in sub.elements
    ]
    payload = {
        "polynomial": _poly_json(f),
        "p": p,
        "genus": curve.genus,
        "n_factors": sub.n,
        "rank": sub.rank,
        "count": len(sub.elements),
        "elements": elements,
    }
    return payload, "elements", ["u", "v"], EXIT_OK


def _cmd_verify(args: argparse.Namespace, polys: list[IntegerPolynomial]):
    (f,) = polys
    report = reciprocity.verify_law(f, args.bound, seed=args.seed, workers=args.workers)
    payload = {
        "polynomial": _poly_json(f),
        "genus": report.genus,
        "bound": report.bound,
        "bad_primes": list(report.bad_primes),
        "good_count": len(report.records),
        "spl": list(report.spl),
        "verdict": report.verdict,
        "density": _fraction_json(report.density),
        "violations": [_record_json(r) for r in report.violations()],
        "records": [_record_json(r) for r in report.records],
    }
    fields = [field.name for field in dataclasses.fields(reciprocity.PrimeRecord)]
    status = EXIT_OK if report.verdict else EXIT_VIOLATION
    return payload, "records", fields, status


def _cmd_spl(args: argparse.Namespace, polys: list[IntegerPolynomial]):
    (f,) = polys
    primes = reciprocity.spl_set(f, args.bound)
    payload = {
        "polynomial": _poly_json(f),
        "bound": args.bound,
        "count": len(primes),
        "primes": [{"p": p} for p in primes],
    }
    return payload, "primes", ["p"], EXIT_OK


def _cmd_density(args: argparse.Namespace, polys: list[IntegerPolynomial]):
    (f,) = polys
    record = _record_json(reciprocity.density_report(f, args.bound, args.group_order))
    payload = {"polynomial": _poly_json(f), "records": [record]}
    return payload, "records", list(record), EXIT_OK


def _cmd_include(args: argparse.Namespace, polys: list[IntegerPolynomial]):
    f, h = polys
    rep = reciprocity.inclusion_check(f, h, args.bound)
    payload = {
        "f": _poly_json(f),
        "h": _poly_json(h),
        "bound": rep.bound,
        "holds": rep.holds,
        "good_count": rep.good_count,
        "exception_count": len(rep.exceptions),
        "first_counterexample": rep.first_counterexample,
        "exceptions": [{"p": p} for p in rep.exceptions],
    }
    return payload, "exceptions", ["p"], EXIT_OK


def _cmd_frobenius(args: argparse.Namespace, polys: list[IntegerPolynomial]):
    (f,) = polys
    records = reciprocity.frobenius_sweep(f, args.bound, seed=args.seed, cap=args.ext_cap)
    payload = {
        "polynomial": _poly_json(f),
        "bound": args.bound,
        "size": 2 * ((f.degree - 1) // 2),
        "records": [_record_json(r) for r in records],
    }
    fields = [field.name for field in dataclasses.fields(reciprocity.FrobeniusRecord)]
    return payload, "records", fields, EXIT_OK


def _cmd_blowup(args: argparse.Namespace, polys: list[IntegerPolynomial]):
    try:
        coeffs = [int(c) for c in args.coeffs.split(",")]
    except ValueError:
        raise PolynomialSyntaxError(
            "coefficients must be a comma-separated integer list", position=0
        ) from None
    charts = torsion.blowup_chain(args.genus, coeffs, args.prime)
    records = [
        {
            "step": c.step,
            "variables": list(c.variables),
            "monomial": {"variable": c.monomial[0], "power": c.monomial[1]},
            "residual_exponent": c.residual_exponent,
            "terminal": c.terminal,
            "equation": {
                "variables": list(c.equation.variables),
                "terms": [list(t) for t in c.equation.terms],
            },
        }
        for c in charts
    ]
    payload = {
        "genus": args.genus,
        "p": args.prime,
        "coefficients": coeffs,
        "rounds": len(records),
        "charts": records,
    }
    fields = [
        "step",
        "variables",
        "monomial",
        "residual_exponent",
        "terminal",
        "equation",
    ]
    return payload, "charts", fields, EXIT_OK


_COMMANDS = {
    "factor": _cmd_factor,
    "torsion": _cmd_torsion,
    "verify": _cmd_verify,
    "spl": _cmd_spl,
    "density": _cmd_density,
    "include": _cmd_include,
    "frobenius": _cmd_frobenius,
    "blowup": _cmd_blowup,
}


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def _envelope(args: argparse.Namespace, payload: dict, exit_status: int) -> dict:
    stamp = None
    if args.stamp:
        stamp = datetime.datetime.now(datetime.timezone.utc).isoformat()
    return {
        "tool": "splitlaw",
        "version": __version__,
        "revision": REPORT_REVISION,
        "command": args.command,
        "config": {key: value for key, value in vars(args).items() if key not in UNECHOED},
        "generated_at": stamp,
        "payload": payload,
        "exit_status": exit_status,
    }


def _cell(value) -> str:
    if isinstance(value, str):
        return value
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _render_csv(records: list[dict], fieldnames: list[str]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(fieldnames)
    for record in records:
        writer.writerow([_cell(record.get(name)) for name in fieldnames])
    return buf.getvalue()


def _render_text(
    args: argparse.Namespace, payload: dict, records_key: str, exit_status: int
) -> str:
    lines = [f"splitlaw {args.command}"]
    skip = {records_key, "violations"}
    for key, value in payload.items():
        if key in skip:
            continue
        lines.append(f"  {key}: {_cell(value)}")
    lines.append(f"  {records_key}: {len(payload[records_key])}")
    if args.command == "verify" and payload["violations"]:
        lines.append("  VIOLATIONS:")
        for r in payload["violations"]:
            lines.append(f"    {_cell(r)}")
    lines.append(f"  exit: {exit_status}")
    return "\n".join(lines) + "\n"


def run(args: argparse.Namespace) -> int:
    """Execute one parsed subcommand and write its report; returns the exit code."""
    try:
        bound = getattr(args, "bound", None)
        if bound is not None and bound < 2:
            raise SplitlawError("bound must be >= 2")
        # refused here, before a sieve as large as the bound is allocated
        if bound is not None and bound >= ff.MODULUS_BOUND:
            raise SplitlawError(f"bound must be below 2**31, got {bound}")
        if getattr(args, "workers", 1) < 1:
            raise SplitlawError(f"workers must be >= 1, got {args.workers}")
        if getattr(args, "ext_cap", 1) < 1:
            raise SplitlawError(f"ext-cap must be >= 1, got {args.ext_cap}")
        out = args.output
        if out and (os.path.isdir(out) or not os.path.isdir(os.path.dirname(out) or ".")):
            raise SplitlawError(f"output {out!r} is a directory, or its directory does not exist")
        texts = [getattr(args, key) for key in ("polynomial", "f", "h") if key in args]
        polys = [parse_polynomial(text) for text in texts]
        for text, f in zip(texts, polys):
            if not f.is_monic:
                print(
                    f"warning: {text!r} is not monic (leading coefficient "
                    f"{f.coeffs[-1] if f.coeffs else 0})",
                    file=sys.stderr,
                )
        payload, records_key, fieldnames, status = _COMMANDS[args.command](args, polys)
    except PolynomialSyntaxError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SplitlawError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (*INTERNAL_ERRORS, ValueError) as exc:
        notes = "".join(f" ({note})" for note in getattr(exc, "__notes__", ()))
        if isinstance(exc, ValueError) and not notes:  # not noted by at_prime: bad input
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        print(f"error: internal: {type(exc).__name__}: {exc}{notes}", file=sys.stderr)
        return EXIT_INTERNAL

    if args.fmt == "json":
        text = json.dumps(_envelope(args, payload, status), sort_keys=True, indent=2) + "\n"
    elif args.fmt == "csv":
        text = _render_csv(payload[records_key], fieldnames)
    else:
        text = _render_text(args, payload, records_key, status)
    try:
        if out:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except OSError as exc:
        print(f"error: cannot write the report: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return status


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad usage; 2 is reserved for law violations
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _default_seed() -> int:
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            print(
                f"warning: ignoring non-integer {SEED_ENV_VAR}={env!r}",
                file=sys.stderr,
            )
    return DEFAULT_SEED


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="splitlaw",
        description=(
            "Empirically verify that an odd-degree polynomial splits "
            "completely mod p exactly when the 2-torsion of the Jacobian "
            "of y^2 = f(x) over F_p has full rank."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    seed = _default_seed()  # read once: every subparser shares the default

    def common(sp):
        sp.add_argument(
            "--seed", type=int, default=seed,
            help=f"PRNG seed (default {DEFAULT_SEED}; env {SEED_ENV_VAR})",
        )
        sp.add_argument(
            "--format", dest="fmt", choices=("json", "csv", "text"),
            default="json", help="output format (default json)",
        )
        sp.add_argument("-o", "--output", help="write the report to a file")
        sp.add_argument(
            "--stamp", action="store_true",
            help="include a wall-clock timestamp (breaks byte-reproducibility)",
        )

    sp = sub.add_parser("factor", help="splitting type of f mod p")
    sp.add_argument("polynomial")
    sp.add_argument("-p", "--prime", type=int, required=True)
    common(sp)

    sp = sub.add_parser("torsion", help="rational 2-torsion subgroup mod p")
    sp.add_argument("polynomial")
    sp.add_argument("-p", "--prime", type=int, required=True)
    common(sp)

    sp = sub.add_parser("verify", help="verify the law over good primes <= bound")
    sp.add_argument("polynomial")
    sp.add_argument("--bound", type=int, required=True)
    sp.add_argument("--workers", type=int, default=1)
    common(sp)

    sp = sub.add_parser("spl", help="completely-split primes <= bound")
    sp.add_argument("polynomial")
    sp.add_argument("--bound", type=int, required=True)
    common(sp)

    sp = sub.add_parser("density", help="observed split-prime frequency")
    sp.add_argument("polynomial")
    sp.add_argument("--bound", type=int, required=True)
    sp.add_argument("--group-order", type=int, default=None)
    common(sp)

    sp = sub.add_parser("include", help="test Spl(f) within Spl(h) empirically")
    sp.add_argument("f")
    sp.add_argument("h")
    sp.add_argument("--bound", type=int, required=True)
    common(sp)

    sp = sub.add_parser("frobenius", help="Frobenius matrices over good primes")
    sp.add_argument("polynomial")
    sp.add_argument("--bound", type=int, required=True)
    sp.add_argument(
        "--ext-cap", type=int, default=ff.DEFAULT_EXT_CAP,
        help="largest allowed splitting-field degree",
    )
    common(sp)

    sp = sub.add_parser("blowup", help="blow-up chain at the point at infinity")
    sp.add_argument("--genus", type=int, required=True)
    sp.add_argument("--coeffs", required=True, help="a_1,...,a_(2g+1) comma-separated")
    sp.add_argument("-p", "--prime", type=int, required=True)
    common(sp)

    return parser


def main(argv=None) -> int:
    return run(build_parser().parse_args(argv))


if __name__ == "__main__":
    raise SystemExit(main())
