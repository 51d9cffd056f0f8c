"""Benchmark of the `splitlaw` command line: sweeps timed end to end, and a
traced run that breaks the time down by layer.

    python3 perfbench/run.py --workload verify-cubic --seed 271828 --seconds 26 --trace 0
    python3 perfbench/run.py --workload all

Run from anywhere; it works on the checkout that holds it (`src/splitlaw`
is imported from there, nothing needs installing) and writes only under
`perfbench/out/`. Every run of the command starts a fresh `python3 -m
splitlaw` process that writes its report to a file, and every report must
pass the correctness gate in `workloads.py`.

--trace 0 prints the end-to-end metrics: the median wall time of the
sweep, the median set-up time (the same command at a trivial bound), good
primes per second of sweep time, and the peak resident memory of the
process and its pool workers. --trace 1 runs the command serially in
process under `tracer.py`, alternating with untraced serial runs, and
prints the per-layer metrics. The last line of standard output is one
JSON object with `correct`, `attempted`, `failed` and `metrics`; a
results file with the environment, the samples and the metrics is written
to `perfbench/out/`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from workloads import DEFAULT_SEED, WORKLOADS, Workload, check_report, good_count

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

SETUP_RUNS = 2  # timed set-up runs after each sweep
MIN_RUNS = 3  # timed sweeps per benchmark run, however long they take

E2E_UNITS = {"wall_s": "s", "setup_s": "s", "primes_per_s": "1/s", "peak_rss_mb": "MB"}
# per-layer metrics that count work; they must repeat exactly between runs
COUNT_SUFFIXES = (".calls", ".per_prime", ".exp_bits", ".report_bytes")
LAYER_UNITS = {
    ".calls": "count",
    ".per_prime": "calls/prime",
    ".exp_bits": "bits",
    ".report_bytes": "bytes",
    "_ms.p50": "ms",
    "_ms.p99": "ms",
    "_s": "s",
    ".s": "s",
}


@dataclass
class Sample:
    wall: float  # seconds from launch until the process was reaped
    rss_mb: float  # peak RSS of the process and the children it reaped
    data: bytes | None  # the report
    problems: list[str]
    layers: dict[str, float] | None = None  # per-layer metrics of a traced run


@dataclass
class Tally:
    attempted: int = 0
    problems: list[str] = field(default_factory=list)
    failed: int = 0

    def add(self, label: str, sample: Sample, extra: list[str] = ()) -> Sample:
        self.attempted += 1
        problems = [*sample.problems, *extra]
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in problems)
        return sample


def launch(args: list[str]) -> tuple[float, int, float]:
    """Run `python3 ARGS` on the checkout; (wall s, exit code, peak RSS MB)."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("SPLITLAW_SEED", None)  # the seed reaches the program only through --seed
    # run as an installed package runs: bytecode cached by the warm-up run
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    out = subprocess.run(
        [sys.executable, str(HERE / "launch.py"), sys.executable, *args],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, check=True,
    )
    result = json.loads(out.stdout)
    return result["wall_s"], result["status"], result["rss_mb"]


def run_cli(w: Workload, seed: int, *, setup=False, serial=False, traced=False) -> Sample:
    report = OUT / f"{w.name}.report.json"
    layers_path = OUT / f"{w.name}.layers.json"
    report.unlink(missing_ok=True)
    args = w.command(seed, str(report), bound=w.setup_bound if setup else None, serial=serial)
    if traced:
        layers_path.unlink(missing_ok=True)
        args = [str(HERE / "tracer.py"), str(layers_path), "--", *args]
    else:
        args = ["-m", "splitlaw", *args]
    wall, status, rss = launch(args)
    data = report.read_bytes() if report.exists() else None
    sample = Sample(wall, rss, data, check_report(w, status, data, setup=setup))
    if traced and layers_path.exists():
        sample.layers = json.loads(layers_path.read_text())
    elif traced:
        sample.problems.append("tracer wrote no metrics")
    return sample


def _keep_going(start: float, walls: list[float], seconds: float, minimum: int) -> bool:
    """Another run fits in the time left, or too few have run yet."""
    if len(walls) < minimum:
        return True
    return time.perf_counter() - start + statistics.median(walls) <= seconds


def _good_count(samples: list[Sample]) -> int | None:
    """Good primes swept, from a correct report if any, else any readable one."""
    for s in sorted(samples, key=lambda s: bool(s.problems)):
        try:
            report = json.loads(s.data)
            return good_count(report["command"], report)
        except (TypeError, ValueError, KeyError, IndexError):
            continue
    return None


def measure(w: Workload, seed: int, seconds: float, tally: Tally):
    """End-to-end metrics from untraced runs; (metrics, details).

    Set-up runs are spread between the sweeps, so that both medians sample
    the same stretch of time on a machine whose speed drifts.
    """
    tally.add("warm-up", run_cli(w, seed, setup=True))
    reference = None
    if w.parallel:
        reference = tally.add("serial reference", run_cli(w, seed, serial=True)).data
    setup: list[Sample] = []
    sweeps: list[Sample] = []
    rounds: list[float] = []
    start = time.perf_counter()
    while _keep_going(start, rounds, seconds, MIN_RUNS):
        began = time.perf_counter()
        s = run_cli(w, seed)
        extra = []
        if reference is not None and s.data != reference:
            extra = ["report differs from the serial run's bytes"]
        sweeps.append(tally.add("sweep", s, extra))
        setup += [tally.add("setup", run_cli(w, seed, setup=True)) for _ in range(SETUP_RUNS)]
        rounds.append(time.perf_counter() - began)
    good = _good_count(sweeps)
    if good is None:
        return None, {}
    wall = statistics.median(s.wall for s in sweeps)
    setup_s = statistics.median(s.wall for s in setup)
    metrics = {
        "wall_s": wall,
        "setup_s": setup_s,
        "primes_per_s": good / (wall - setup_s),
        "peak_rss_mb": statistics.median(s.rss_mb for s in sweeps),
    }
    details = {
        "bound": w.bound,
        "good_count": good,
        "sweep_runs": len(sweeps),
        "sweep_walls_s": [s.wall for s in sweeps],
        "setup_runs": len(setup),
        "setup_walls_s": [s.wall for s in setup],
        "failed_frac": tally.failed / tally.attempted,
    }
    return metrics, details


def layer_unit(name: str) -> str:
    return next(u for suffix, u in LAYER_UNITS.items() if name.endswith(suffix))


def trace(w: Workload, seed: int, seconds: float, tally: Tally):
    """Per-layer metrics from traced serial runs in process; (metrics, details)."""
    tally.add("warm-up", run_cli(w, seed, setup=True))
    plain: list[Sample] = []
    traced: list[Sample] = []
    start = time.perf_counter()
    pairs: list[float] = []
    while _keep_going(start, pairs, seconds, 1):
        u = tally.add("untraced", run_cli(w, seed, serial=True))
        t = run_cli(w, seed, serial=True, traced=True)
        extra = []
        if u.data is not None and t.data != u.data:
            extra = ["traced report differs from the untraced one"]
        traced.append(tally.add("traced", t, extra))
        plain.append(u)
        pairs.append(u.wall + t.wall)
    runs = [t.layers for t in traced if t.layers is not None]
    if not runs or _good_count(traced) is None:
        return None, {}
    counts = [n for n in runs[0] if n.endswith(COUNT_SUFFIXES)]
    metrics = {
        n: runs[0][n] if n in counts else statistics.median(r[n] for r in runs) for n in runs[0]
    }
    unsteady = [n for n in counts if len({r[n] for r in runs}) > 1]
    if unsteady:  # some traced run did different work: one failure
        tally.failed += 1
        tally.problems.append(f"counts differ between traced runs: {unsteady}")
    metrics["cli.report_bytes"] = len(traced[0].data or b"")
    metrics["trace.overhead_s"] = statistics.median(t.wall for t in traced) - statistics.median(
        u.wall for u in plain
    )
    details = {
        "bound": w.bound,
        "good_count": _good_count(traced),
        "traced_runs": len(traced),
        "traced_walls_s": [t.wall for t in traced],
        "untraced_walls_s": [u.wall for u in plain],
    }
    return metrics, details


def git_sha() -> str | None:
    """HEAD of the checkout read from .git, or None outside a git work tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(seed: int) -> dict:
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "seed": seed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=26)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "splitlaw" / "__main__.py").is_file():
        print(f"error: no splitlaw package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    tallies = []
    results = {}
    for name in names:
        w = WORKLOADS[name]
        step = trace if args.trace else measure
        tally = Tally()
        tallies.append(tally)
        metrics, details = step(w, args.seed, args.seconds, tally)
        if metrics is None:
            print(f"error: {name}: no correct report", file=sys.stderr)
            for p in tally.problems:
                print(f"  {p}", file=sys.stderr)
            return 1
        units = {m: E2E_UNITS.get(m) or layer_unit(m) for m in metrics}
        results[name] = {
            "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
            **details,
        }
        print(f"{name}: bound {w.bound}, {details['good_count']} good primes, seed {args.seed}")
        for m, v in metrics.items():
            print(f"  {m:32s} {v:14.6g} {units[m]}")
        if not args.trace:
            runs = f"{details['sweep_runs']} sweeps, {details['setup_runs']} set-ups"
            print(f"  {'failed_frac':32s} {details['failed_frac']:14.6g} ({runs})")
    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    problems = [p for t in tallies for p in t.problems]
    for p in problems:
        print(f"FAILED {p}")

    record = {
        "environment": environment(args.seed),
        "trace": args.trace,
        "seconds": args.seconds,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "workloads": results,
    }
    path = OUT / f"results-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{n}.{m}": v for n, r in results.items() for m, v in r["metrics"].items()}
    line = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
