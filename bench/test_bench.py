"""Smoke tests of the benchmark itself, at tiny sizes.

Run from the repository root with ``python3 -m pytest bench/test_bench.py``.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import workloads  # noqa: E402
from reference import REFERENCE_S, Reference  # noqa: E402
from tracing import Tracer, install  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _bench(cwd: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def _tiny_items(name: str, tmp_path):
    import numpy as np

    return workloads.WORKLOADS[name](np.random.default_rng(3), True, tmp_path)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = _bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert isinstance(result["metrics"][m["name"]]["value"], (int, float))


def test_a_wrong_result_raises_failed_frac(tmp_path):
    item = _tiny_items("haar3q", tmp_path)[0]
    rec, gap, triple = item.run()
    tally = run.Tally()
    tally.record(item, (rec, gap, triple))
    assert tally.failed_frac == 0.0
    wrong = dataclasses.replace(rec, tau3=rec.tau3 + 1e-6)
    tally.record(item, (wrong, gap, triple))
    tally.record(item, RuntimeError("item raised"))
    assert (tally.attempted, tally.failed) == (3, 2)
    assert tally.failed_frac == pytest.approx(2 / 3)


def test_times_are_scaled_by_the_reference_kernel():
    ref = Reference()
    # a machine on which the kernel takes twice REFERENCE_S
    ref.samples[:] = [(REFERENCE_S / 2, REFERENCE_S / 2, REFERENCE_S / 2, REFERENCE_S / 2)]
    assert run.scaled(3.0, ref) == pytest.approx(1.5)


def test_reference_kernel_makes_no_entkit_call():
    ref = Reference()
    tracer = Tracer()
    restore = install(tracer)
    try:
        ref.sample()
    finally:
        restore()
    assert tracer.names and all(name.startswith("linalg.") for name in tracer.names)


def _traced_round(items):
    tracer = Tracer()
    restore = install(tracer)
    try:
        run.run_round(items, tracer)
    finally:
        restore()
    return tracer


def _calls(tracer, name):
    return tracer.layer_table().get(name, (0, 0.0))[0]


def test_traced_counts_match_untraced_outputs_haar3q(tmp_path):
    items = _tiny_items("haar3q", tmp_path)
    _, _, outputs = run.run_round(items)
    tracer = _traced_round(items)
    assert _calls(tracer, "invariants.lu_invariants") == len(outputs)
    lu = "invariants.lu_invariants"
    assert tracer.count_under("states.partial_trace", lu) == 21 * len(outputs)
    assert tracer.count_under("states.DensityMatrix", lu) == 21 * len(outputs)
    assert tracer.count_under("linalg.eigvalsh", lu) == 30 * len(outputs)
    # the monogamy gap adds 6 partial traces and the Kempe pairings 9 more
    assert _calls(tracer, "states.partial_trace") == 36 * len(outputs)
    assert _calls(tracer, "states.DensityMatrix") == 36 * len(outputs)
    assert _calls(tracer, "linalg.eigvalsh") == 45 * len(outputs)


def test_traced_counts_match_untraced_outputs_solvers(tmp_path):
    items = _tiny_items("solvers", tmp_path)
    _, _, outputs = run.run_round(items)
    tracer = _traced_round(items)
    kinds = [item.kind for item in items]
    assert _calls(tracer, "invariants.acin_canonical_form") == kinds.count("canon")
    assert _calls(tracer, "measures.convex_roof") == kinds.count("roof")
    assert _calls(tracer, "measures.geometric_measure") == kinds.count("gm")
    # one L-BFGS run per restart of every roof
    assert _calls(tracer, "measures.minimize") == workloads.ROOF_RESTARTS * kinds.count("roof")
    assert all(not isinstance(out, Exception) for out in outputs)


def test_traced_counts_match_untraced_outputs_cli_dense(tmp_path):
    items = _tiny_items("cli-dense", tmp_path)
    _, _, outputs = run.run_round(items)
    tracer = _traced_round(items)
    reports = [json.loads(text) for code, text in outputs]
    assert _calls(tracer, "cli.main") == len(items)
    assert _calls(tracer, "serialize.from_document") == len(items)
    assert _calls(tracer, "partitions.ppt_check") == sum(len(r["ppt"]) for r in reports)
    pure = [r for r in reports if r["class"] != "inapplicable"]
    assert _calls(tracer, "partitions.classify_pure") == len(pure)


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
