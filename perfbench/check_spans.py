"""Self-check of the benchmark: span bindings and metric names.

    python3 -m pytest perfbench/check_spans.py

Each workload is traced twice, serially, exactly as `run.py --trace 1`
traces it. A span that records no calls on a workload that must exercise
it means a wrapper was bound where the caller does not look the name up;
a count that differs between the two runs cannot support a claim.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

# layer metrics that must be nonzero on each workload
EXERCISED = {
    "verify-cubic": (
        "reciprocity.split.calls",
        "reciprocity.sweep.self_s",
        "poly.factorize.calls",
        "poly.pow_mod.calls",
        "jacobian.add.calls",
        "torsion.two_torsion.calls",
        "ff.fp_mul.calls",
        "cli.self_s",
    ),
    "verify-septic-w2": (
        "reciprocity.split.calls",
        "poly.factorize.calls",
        "poly.pow_mod.calls",
        "jacobian.add.calls",
        "torsion.two_torsion.calls",
        "ff.fp_mul.calls",
    ),
    "frobenius-quintic": (
        "reciprocity.split.calls",
        "poly.factorize.calls",
        "poly.pow_mod.calls",
        "poly.roots_in.calls",
        "torsion.frobenius.calls",
        "ff.ext_new.calls",
        "ff.ext_mul.calls",
    ),
    "density-cubic": (
        "reciprocity.split.calls",
        "reciprocity.sweep.self_s",
        "poly.pow_mod.calls",
        "ff.fp_mul.calls",
    ),
}


@pytest.fixture(scope="module", autouse=True)
def _out_dir():
    run.OUT.mkdir(exist_ok=True)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_spans_bound_and_counts_repeat(name):
    w = WORKLOADS[name]
    first, second = (run.run_cli(w, DEFAULT_SEED, serial=True, traced=True) for _ in range(2))
    for sample in (first, second):
        assert not sample.problems, sample.problems
    assert first.data == second.data
    for metric in EXERCISED[name]:
        assert first.layers[metric] > 0, f"{metric} recorded nothing on {name}"
    counts = {m: v for m, v in first.layers.items() if m.endswith(run.COUNT_SUFFIXES)}
    assert counts == {m: second.layers[m] for m in counts}


def test_benchmark_json_matches_the_runner():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    sample = run.run_cli(WORKLOADS["density-cubic"], DEFAULT_SEED, setup=True, traced=True)
    layer_names = [*sample.layers, "cli.report_bytes", "trace.overhead_s"]
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        m: run.layer_unit(m) for m in layer_names
    }
