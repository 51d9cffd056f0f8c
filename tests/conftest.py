"""Let a fresh checkout run the suite without installing the package.

`src/` goes on `sys.path` for the tests themselves and at the front of
`PYTHONPATH` for the `python -m splitlaw` subprocesses some tests start.
"""

import os
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")

sys.path.insert(0, SRC)
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [SRC, os.environ.get("PYTHONPATH")])
)
