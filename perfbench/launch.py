"""Run one command and print its wall time, exit code and peak RSS as JSON.

    python3 perfbench/launch.py PROGRAM ARGS...

Linux charges a child with the peak RSS of the process it was started
from (the old address space is accounted when the child execs), so
`run.py`, whose own footprint grows as it reads reports, starts every
timed command through this small process. The peak covers the command and
the children it reaped, such as pool workers. The wall time runs from
the start of the command until it has been reaped.
"""

import json
import os
import subprocess
import sys
import time


def main(argv: list[str]) -> None:
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    result = {"wall_s": wall, "status": proc.returncode, "rss_mb": usage.ru_maxrss / 1024}
    json.dump(result, sys.stdout)


if __name__ == "__main__":
    main(sys.argv[1:])
