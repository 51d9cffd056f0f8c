"""The package is what the commands run.

Every subcommand runs in process under sys.setprofile, with refused input
too. Each function, method or property in the package whose name has no
leading underscore must be called by a run, or be on the allowlist with its
reason; reference code that only tests need lives in tests/oracles.py.
"""

import ast
import sys
import time
from pathlib import Path

from splitlaw import cli

SRC = Path(cli.__file__).parent

# (argv, exit status); each subcommand runs once per format
RUNS = [
    (argv + ["--format", fmt], 0)
    for argv in [
        ["factor", "x^3-2", "-p", "31"],
        ["torsion", "x^5-x-1", "-p", "7"],
        ["verify", "x^3-2", "--bound", "60"],
        ["spl", "x^3-2", "--bound", "60"],
        ["density", "x^3-2", "--bound", "60", "--group-order", "6"],
        ["include", "x^3-2", "x^2+3", "--bound", "60"],
        ["frobenius", "x^3-2", "--bound", "60"],
        ["blowup", "--genus", "3", "--coeffs", "1,2,3,4,5,6,7", "-p", "11"],
    ]
    for fmt in ("json", "csv", "text")
] + [
    (["factor", "3x^3-2", "-p", "7"], 0),  # non-monic
    (["verify", "x^^3", "--bound", "60"], 1),  # bad syntax
    (["verify", "x^4-2", "--bound", "60"], 1),  # even degree
    (["frobenius", "x^5-x-1", "--bound", "30", "--ext-cap", "1"], 1),  # field too large
    (["verify", "x^3-2"], 1),  # argparse misuse: no --bound
    (["torsion", "x^3-2", "-p", "3"], 1),  # (x+1)^3 mod 3: repeated root
    (["torsion", "x^3+1", "-p", "3"], 1),  # the same cube, from coefficients already reduced
]

# name: why no command reaches it
ALLOWED = {
    "ExtFieldContext.element": "int conversion over F_{p^k}; commands build F_p polynomials",
    "PrimeFieldContext.add": "Cantor add sums v coefficients; commands add only v = 0 classes",
    "PrimeFieldContext.neg": "Cantor reduction negates v; commands reduce only v = 0 classes",
    "good_primes": "the good primes alone; every sweep also needs disc f, from _split_primes",
}


def _definitions():
    """(file, first line) -> dotted name of each public function, method or property."""
    out = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, path, prefix + child.name + ".")
            elif isinstance(child, ast.FunctionDef):
                if not child.name.startswith("_"):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    out[str(path), first] = prefix + child.name
                visit(child, path, prefix + child.name + ".")

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path, "")
    return out


def test_every_public_function_is_reached_by_a_command(capsys):
    reached = set()

    def hook(frame, event, arg):
        if event == "call":
            reached.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    statuses = []
    t0 = time.perf_counter()
    sys.setprofile(hook)
    try:
        for argv, _ in RUNS:
            try:
                statuses.append(cli.main(argv))
            except SystemExit as exc:
                statuses.append(exc.code)
    finally:
        sys.setprofile(None)
    elapsed = time.perf_counter() - t0
    capsys.readouterr()
    assert statuses == [status for _, status in RUNS]
    defined = _definitions()
    unreached = {name for key, name in defined.items() if key not in reached}
    unlisted, stale = sorted(unreached - ALLOWED.keys()), sorted(ALLOWED.keys() - unreached)
    assert not unlisted, f"reached by no command: {', '.join(unlisted)}"
    assert not stale, f"allowlisted but reached or gone: {', '.join(stale)}"
    assert elapsed < 3.0, f"the traced runs took {elapsed:.2f} s"
