"""perfbench/tracer.py still finds every name it wraps.

The tracer replaces public functions and methods of the package by name
(`Polynomial.pow_mod`, `PrimeFieldContext.mul`, `roots_in`, ...), so
renaming or deleting one breaks traced runs while every plain run passes.
Each command here runs twice in a subprocess, under the tracer and plain:
the traced run must exit 0, write a metrics document, and write the same
report bytes as the plain one.
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
        assert isinstance(json.loads(metrics.read_text()), dict)
        assert traced.read_bytes() == plain.read_bytes(), argv
    elapsed = time.perf_counter() - t0
    assert elapsed < 3.0, f"the traced and plain runs took {elapsed:.2f} s"
