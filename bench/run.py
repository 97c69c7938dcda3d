"""Run one entkit benchmark workload and print its metrics as one JSON line.

Usage, from the root of a checkout::

    python3 bench/run.py --workload haar3q --seed 1 --seconds 30 --trace 0

Load is a closed loop with a single caller in this process: each item starts
when the previous one returns.  A workload is one fixed list of items (a
round) generated from ``--seed``; rounds repeat while the next one is
expected to finish within ``--seconds``, and at least one round always runs.

The machine is shared, and its speed drifts by tens of percent for minutes
at a time, so raw wall times of the same code spread too far between runs.
Between items, every half second, the run therefore times a fixed reference
kernel that does not touch entkit (:mod:`reference`).  The reported round
and set-up times are the measured ones scaled by ``REFERENCE_S`` over the
mean time of that kernel in the same run: seconds on a machine that runs
the reference kernel in ``REFERENCE_S``.  The raw wall times are kept in the
result file and among the per-layer metrics.

Every output is checked after its round, outside the timed span; a failed
check or an item that raised counts in ``failed`` and is never dropped or
re-run.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs untraced
rounds for half the time, then one traced round, and prints the per-layer
metrics of that round; the spans are written to ``.bench_out/``.  The full
result, with machine facts, goes to ``.bench_out/BENCH_<run>.json`` either way.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 3
IMPORT_REPEATS = 3
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _pin_blas_threads() -> None:
    """Run BLAS on one thread; must run before numpy loads.

    On a shared 2-core machine a second BLAS thread that has to wait for a
    busy core stalls the caller: a roof or PPT sweep then runs up to ten
    times slower, so multi-threaded BLAS makes the timings unsteady.
    """
    for var in BLAS_ENV:
        os.environ[var] = "1"


def _blas_facts() -> list[dict]:
    """BLAS build info from numpy, and the live thread count of each loaded OpenBLAS."""
    import ctypes

    import numpy as np

    facts = []
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    libs = set()
    with open("/proc/self/maps", encoding="utf-8") as fh:
        for line in fh:
            if "openblas" in line.lower():
                libs.add(line.split()[-1])
    for path in sorted(libs):
        entry = {"library": os.path.basename(path), "threads": None}
        lib = ctypes.CDLL(path)
        for sym in (
            "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_", "openblas_get_num_threads",
        ):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                entry["threads"] = int(fn())
                break
        facts.append(entry)
    return [{"numpy_blas": blas.get("name"), "version": blas.get("version")}] + facts


def machine_facts(seed: int) -> dict:
    import numpy as np
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu
            )
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_facts(),
        "blas_env": {var: os.environ.get(var) for var in BLAS_ENV},
        "workload_seed": seed,
    }


def run_round(items, tracer=None, reference=None):
    """One closed-loop pass: ``(round wall s, per-item latencies s, outputs)``.

    With a ``reference``, the reference kernel is timed between items when
    it is due; the round wall leaves that time out.
    """
    latencies, outputs = [], []
    spent = 0.0
    t_round = time.perf_counter()
    for item in items:
        if reference is not None:
            spent += reference.maybe_sample()
        t0 = time.perf_counter()
        try:
            out = item.run() if tracer is None else tracer.call(f"item.{item.kind}", item.run)
        except Exception as exc:  # counted as a failed item; the loop goes on
            out = exc
        latencies.append(time.perf_counter() - t0)
        outputs.append(out)
    return time.perf_counter() - t_round - spent, latencies, outputs


def run_rounds(items, seconds: float, tally, reference=None):
    """Repeat rounds while the next is expected to end within ``seconds``.

    Each round's outputs are checked right after it, outside the timed span,
    and then dropped, so memory does not grow with the number of rounds.
    Returns the round walls and per-item latencies.
    """
    walls, latencies = [], []
    t_start = time.perf_counter()
    while True:
        wall, lat, outputs = run_round(items, reference=reference)
        elapsed = time.perf_counter() - t_start
        walls.append(wall)
        latencies.append(lat)
        tally.record_round(items, outputs)
        if elapsed + statistics.median(walls) > seconds:
            return walls, latencies


class Tally:
    """Checks outputs against their items; counts attempted and failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def record(self, item, out) -> None:
        self.attempted += 1
        if isinstance(out, Exception):
            msg = f"raised {type(out).__name__}: {out}"
        else:
            try:
                msg = item.check(out)
            except Exception as exc:  # a malformed output fails its check
                msg = f"check raised {type(exc).__name__}: {exc}"
        if msg is not None:
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append(f"{item.label}: {msg}")

    def record_round(self, items, outputs) -> None:
        for item, out in zip(items, outputs):
            self.record(item, out)

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def _percentile_ms(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q)) * 1e3


def best_times(latencies) -> list[float]:
    """Each item's fastest time over the rounds."""
    return [min(col) for col in zip(*latencies)]


def import_times(src: Path) -> list[float]:
    """Seconds of ``import entkit.cli`` in fresh interpreters, with warm caches."""
    code = (
        "import time; t = time.perf_counter(); import entkit.cli; "
        "print(time.perf_counter() - t)"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    times = []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True,
            check=True, timeout=120,
        )
        times.append(float(proc.stdout))
    return times


def scaled(seconds: float, reference) -> float:
    """Seconds on a machine that runs the reference kernel in ``REFERENCE_S``."""
    from reference import REFERENCE_S

    return seconds * REFERENCE_S / statistics.fmean(reference.totals())


def end_to_end(setup_s: float, walls, n_items: int, reference) -> dict:
    round_s = scaled(statistics.fmean(walls), reference)
    return {
        "setup_s": (scaled(setup_s, reference), "s"),
        "round_s": (round_s, "s"),
        "items_per_s": (n_items / round_s, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(tracer, items, traced_wall, traced_outputs, walls, latencies, reference) -> dict:
    import workloads
    from tracing import SPAN_NAMES

    table = tracer.layer_table()
    metrics = {}
    for name in SPAN_NAMES:
        calls, self_s = table.get(name, (0, 0.0))
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.self_s"] = (self_s, "s")

    def ratio(num, den):
        return num / den if den else 0.0

    def calls(name):
        return table.get(name, (0, 0.0))[0]

    n_lu = calls("invariants.lu_invariants")
    n_canon = calls("invariants.acin_canonical_form")
    n_roof = calls("measures.convex_roof")
    restarts = workloads.ROOF_RESTARTS * n_roof
    n_cut = calls("partitions.ppt_check")
    metrics.update({
        "states.validations_per_state": (
            ratio(tracer.count_under("states.DensityMatrix", "invariants.lu_invariants"), n_lu),
            "count/state"),
        "invariants.partial_traces_per_state": (
            ratio(tracer.count_under("states.partial_trace", "invariants.lu_invariants"), n_lu),
            "count/state"),
        "linalg.eigvalsh_per_state": (
            ratio(tracer.count_under("linalg.eigvalsh", "invariants.lu_invariants"), n_lu),
            "count/state"),
        "linalg.svd_per_canon": (
            ratio(tracer.count_under("linalg.svd", "invariants.acin_canonical_form"), n_canon),
            "count/canon"),
        # every cost evaluation builds the ensemble once through expm; one
        # more expm per roof rebuilds the best ensemble at the end
        "measures.f_evals_per_roof_restart": (
            ratio(tracer.count_under("measures.expm", "measures.convex_roof") - n_roof, restarts),
            "count/restart"),
        "states.pure_states_per_roof_restart": (
            ratio(tracer.count_under("states.PureState", "measures.convex_roof"), restarts),
            "count/restart"),
        "measures.roof_restarts": (restarts, "count"),
        "partitions.validations_per_cut": (
            ratio(tracer.count_under("states.DensityMatrix", "partitions.ppt_check"), n_cut),
            "count/cut"),
    })
    for kind, key in (("roof", "measures.roof_converged_frac"), ("gm", "measures.gm_converged_frac")):
        results = [
            out for item, out in zip(items, traced_outputs)
            if item.kind == kind and not isinstance(out, Exception)
        ]
        metrics[key] = (ratio(sum(r.converged for r in results), len(results)), "frac")
    untraced = statistics.median(walls)
    metrics["trace.overhead_s"] = (traced_wall - untraced, "s")
    metrics["trace.overhead_frac"] = (ratio(traced_wall - untraced, untraced), "frac")
    metrics["trace.spans"] = (len(tracer.names), "count")
    metrics["raw_round_s"] = (statistics.fmean(walls), "s")
    metrics["reference_ms"] = (statistics.fmean(reference.totals()) * 1e3, "ms")
    # per-kind throughput over each item's best time in the untraced rounds,
    # so a gain for one solver is named
    best = best_times(latencies)
    for kind in ("canon", "roof", "gm"):
        idx = [i for i, item in enumerate(items) if item.kind == kind]
        metrics[f"{kind}_per_s"] = (ratio(len(idx), sum(best[i] for i in idx)), "1/s")
    flat = [x for lat in latencies for x in lat]
    metrics["item_p50_ms"] = (_percentile_ms(flat, 50), "ms")
    metrics["item_p90_ms"] = (_percentile_ms(flat, 90), "ms")
    metrics["item_p99_ms"] = (_percentile_ms(flat, 99), "ms")
    metrics["item_samples"] = (len(flat), "count")
    return metrics


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("haar3q", "solvers", "cli-dense"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="tiny inputs, for the smoke test")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "entkit" / "__init__.py").is_file():
        print(f"bench: no entkit sources under {src}", file=sys.stderr)
        return 2
    _pin_blas_threads()
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(Path(__file__).resolve().parent))

    import entkit.cli  # noqa: F401  (numpy, scipy and every entkit module)
    if Path(entkit.__file__).resolve().parent != (src / "entkit").resolve():
        print(f"bench: imported entkit from {entkit.__file__}, not {src}", file=sys.stderr)
        return 2

    import numpy as np

    import workloads

    run_name = f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-tiny" if args.tiny else "")
    workdir = OUT_DIR / f"{args.workload}-seed{args.seed}"
    build = workloads.WORKLOADS[args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        items = build(np.random.default_rng(args.seed), args.tiny, workdir)
        workloads.warm_up(items)
        setup_times.append(time.perf_counter() - t0)
    import_s = import_times(src)
    # raw seconds; scaled like the round time once the run has timed the reference
    setup_s = statistics.median(import_s) + statistics.median(setup_times)

    tally = Tally()
    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny,
        "machine": machine_facts(args.seed),
        "import_s": import_s, "setup_repeats_s": setup_times, "raw_setup_s": setup_s,
        "items_per_round": len(items),
    }
    from reference import Reference

    reference = Reference()
    if args.trace:
        from tracing import Tracer, install

        walls, latencies = run_rounds(items, args.seconds / 2, tally, reference)
        tracer = Tracer()
        restore = install(tracer)
        try:
            traced_wall, _, traced_outputs = run_round(items, tracer)
        finally:
            restore()
        tally.record_round(items, traced_outputs)
        metrics = per_layer(
            tracer, items, traced_wall, traced_outputs, walls, latencies, reference)
        metrics["failed_frac"] = (tally.failed_frac, "frac")
        spans_path = OUT_DIR / f"spans-{run_name}.npz"
        tracer.save(spans_path)
        result["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        walls, latencies = run_rounds(items, args.seconds, tally, reference)
        metrics = end_to_end(setup_s, walls, len(items), reference)

    kinds = {}
    for i, item in enumerate(items):
        kinds.setdefault(item.kind, []).extend(lat[i] for lat in latencies)
    result.update({
        "rounds": len(walls), "round_walls_s": walls,
        "mean_round_s": statistics.fmean(walls),
        "best_item_s": best_times(latencies),
        "reference_pieces": list(reference.PIECES),
        "reference_samples_s": reference.samples,
        "kinds": {
            kind: {
                "items": len(lat), "busy_s": sum(lat),
                "p50_ms": _percentile_ms(lat, 50), "p90_ms": _percentile_ms(lat, 90),
            }
            for kind, lat in kinds.items()
        },
        "attempted": tally.attempted, "failed": tally.failed,
        "failed_frac": tally.failed_frac, "failures": tally.failures,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })
    (OUT_DIR / f"BENCH_{run_name}.json").write_text(json.dumps(result, indent=1) + "\n")
    for msg in tally.failures:
        print(f"bench: FAILED {msg}", file=sys.stderr)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
