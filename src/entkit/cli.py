"""Command-line front end.

Subcommands: ``make``, ``analyze``, ``convert-check``, ``sweep``,
``teleport-demo``, ``unlock-demo``, ``ame-table``.  States travel as JSON
documents (see :mod:`entkit.serialize`).  Exit codes: 0 success, 2 bad
usage/input, 3 numerical non-convergence (best-effort output still emitted).
No color, no network, no environment configuration.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

import numpy as np

from . import __version__
from .core import ConvergenceError, SizeLimitError, _check_cap, _check_finite, _check_same_dims
from .invariants import (
    lu_invariants,
    polytope_coords,
    slocc_class_3qubit,
    tangles,
    wootters_concurrence,
)
from .measures import geometric_measure
from .partitions import (
    Partition,
    _ppt_sweep,
    as_bipartition,
    classify_pure,
    single_party_bipartition,
)
from .protocols import teleport, unlock_smolin
from .schmidt import RANK_TOL, find_catalyst, majorizes, schmidt_vector
from .serialize import _dumps, load_state
from .special import ame_feasibility
from .states import (
    DensityMatrix,
    PureState,
    _GRAPH_VERTEX_CAP,
    _marginal_spectrum,
    acin_state,
    bell_state,
    ghz_state,
    graph_state,
    phi_a_state,
    psi25_state,
    purity,
    random_pure_state,
    shannon_entropy,
    smolin_state,
    upb_state,
    w_state,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NO_CONVERGENCE = 3


def _write(text: str, out_path: str | None) -> None:
    if out_path and out_path != "-":
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(obj, out_path: str | None) -> None:
    _write(json.dumps(obj, indent=1) + "\n", out_path)


def _emit_rows(rows: list[dict], columns: list[str], fmt: str, out_path: str | None) -> None:
    if fmt == "json":
        _emit_json(rows, out_path)
        return
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=columns)
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    _write(buf.getvalue(), out_path)


def _read_state(path: str):
    if path == "-":
        return load_state(sys.stdin)
    with open(path, "rb") as fh:
        return load_state(fh)


def _parse_complex(text: str) -> complex:
    return complex(text.strip().replace("i", "j"))


def _parse_floats(text: str) -> list[float]:
    return [float(x) for x in text.split(",") if x.strip() != ""]


def _parse_bipartition(text: str, n: int) -> Partition:
    # "0,1|2" style
    blocks = [[int(i) for i in s.split(",") if i.strip() != ""] for s in text.split("|")]
    return as_bipartition(blocks, n)


# ---------------------------------------------------------------------------
# make
# ---------------------------------------------------------------------------

def _parse_edges(text: str, vertices: int | None):
    edges = []
    hi = -1
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        try:
            a, b = map(int, token.split("-"))
        except ValueError:
            raise ValueError(f"edge {token!r} is not of the form a-b, two vertex numbers") from None
        edges.append((a, b))
        hi = max(hi, a, b)
    if vertices is not None and vertices < 1:
        raise ValueError(f"--vertices must be >= 1, got {vertices}")
    m = (hi + 1) if vertices is None else vertices
    _check_cap(m, _GRAPH_VERTEX_CAP, "graph vertex count")
    if hi >= m:
        raise ValueError(f"edge endpoint {hi} outside the {m} vertices 0..{m - 1}")
    adj = np.zeros((m, m), dtype=int)
    for a, b in edges:
        adj[a, b] = adj[b, a] = 1
    return adj


def _make_graph(args):
    if not args.edges:
        raise ValueError("graph requires --edges, e.g. --edges 0-1,1-2")
    return graph_state(_parse_edges(args.edges, args.vertices))


def _make_acin(args):
    if not args.r:
        raise ValueError("acin requires --r r0,r1,r2,r3,r4")
    return acin_state(_parse_floats(args.r), args.theta)


#: state name -> constructor(args)
_STATES = {
    "bell": lambda args: bell_state(args.d),
    "ghz": lambda args: ghz_state(args.n, args.d, _parse_floats(args.lam) if args.lam else None),
    "w": lambda args: w_state(),
    "graph": _make_graph,
    "smolin": lambda args: smolin_state(),
    "upb": lambda args: upb_state(),
    "psi25": lambda args: psi25_state(),
    "phi-a": lambda args: phi_a_state(_parse_complex(args.a)),
    "acin": _make_acin,
}


def cmd_make(args) -> int:
    state = _STATES[args.state](args)
    _write(_dumps(state, name=args.state), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def _pure(state) -> bool:
    return isinstance(state, PureState)


def _pure_3qubit(state) -> bool:
    return _pure(state) and state.dims == (2, 2, 2)


def _class_entry(state: PureState, args) -> dict:
    rep = classify_pure(state)
    entry = {
        "finest_product_partition": rep.finest_product_partition.to_json(),
        "producibility_m": rep.producibility_m,
        "genuinely_multipartite": rep.genuinely_multipartite,
    }
    if _pure_3qubit(state):
        entry["slocc_class"] = slocc_class_3qubit(state).value
    return entry


def _schmidt_entry(state: PureState, part) -> dict:
    # entanglement_entropy and schmidt_rank, read from one Schmidt vector
    lam = schmidt_vector(state, part)
    return {
        "lambda": [float(x) for x in lam],
        "entropy": shannon_entropy(lam),
        "rank": int((lam > RANK_TOL).sum()),
    }


def _schmidt_section(state: PureState, args) -> dict:
    if args.bipartition:
        return _schmidt_entry(state, _parse_bipartition(args.bipartition, state.n_parties))
    if state.n_parties == 2:
        return _schmidt_entry(state, None)
    cuts = (single_party_bipartition(k, state.n_parties) for k in range(state.n_parties))
    return {str(part): _schmidt_entry(state, part) for part in cuts}


def _ppt_section(state, args) -> dict:
    sweep = _ppt_sweep(state).items()
    return {str(part): {"ppt": flag, "min_eigenvalue": mineig} for part, (flag, mineig) in sweep}


def _geometric_measure_entry(state: PureState, args) -> dict:
    res = geometric_measure(state, restarts=args.restarts, tol=args.tol, seed=args.seed)
    return {"value": res.value, "restarts_used": res.restarts_used, "converged": res.converged}


#: section name -> (applies(state), entry(state, args)); a section that does
#: not apply to the state reports "inapplicable", and a solver's entry carries
#: its ``converged`` flag
_SECTIONS = {
    "invariants": (_pure_3qubit, lambda state, args: lu_invariants(state).to_json()),
    "tangles": (
        _pure_3qubit, lambda state, args: dict(zip(("tau1", "tau2", "tau3"), tangles(state)))
    ),
    "class": (_pure, _class_entry),
    "schmidt": (lambda state: _pure(state) and state.n_parties >= 2, _schmidt_section),
    "ppt": (lambda state: state.n_parties >= 2, _ppt_section),
    "polytope": (_pure_3qubit, lambda state, args: list(polytope_coords(state))),
    "geometric-measure": (_pure, _geometric_measure_entry),
}


def cmd_analyze(args) -> int:
    state = _read_state(args.input)
    which = [w.strip() for w in args.which.split(",") if w.strip()]
    for w in which:
        if w not in _SECTIONS:
            raise ValueError(f"unknown analysis {w!r}; choose from {', '.join(_SECTIONS)}")
    report: dict = {"dims": list(state.dims)}
    for w in which:
        applies, entry = _SECTIONS[w]
        report[w] = entry(state, args) if applies(state) else "inapplicable"
    _emit_json(report, args.out)
    solved = [e["converged"] for e in report.values() if isinstance(e, dict) and "converged" in e]
    return EXIT_OK if all(solved) else EXIT_NO_CONVERGENCE


# ---------------------------------------------------------------------------
# convert-check
# ---------------------------------------------------------------------------

def cmd_convert_check(args) -> int:
    source = _read_state(args.source)
    target = _read_state(args.target)
    if not isinstance(source, PureState) or not isinstance(target, PureState):
        raise ValueError("convert-check requires pure states")
    _check_same_dims(source, target)
    part = (
        _parse_bipartition(args.bipartition, source.n_parties)
        if args.bipartition
        else None
    )
    lam_source, lam_target = schmidt_vector(source, part), schmidt_vector(target, part)
    forward = majorizes(lam_target, lam_source)  # Nielsen: the target majorizes
    out = {
        "convertible": forward,
        "reverse_convertible": majorizes(lam_source, lam_target),
        "schmidt_source": [float(x) for x in lam_source],
        "schmidt_target": [float(x) for x in lam_target],
    }
    if not forward and args.catalyst_dim is not None:
        eta = find_catalyst(
            source, target, catalyst_dim=args.catalyst_dim,
            grid_resolution=args.catalyst_grid, bipartition=part,
        )
        out["catalyst"] = None if eta is None else [float(x) for x in eta]
    _emit_json(out, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

#: Most points a ``--grid`` range or list may hold.
_GRID_CAP = 10_000


def _grid_range(text: str) -> list[float]:
    """``start:stop:step`` (endpoints included within half a step) or a comma list.

    Every value must be finite.  A grid of more than ``_GRID_CAP`` points
    raises ``SizeLimitError``; a range is counted before any point is built.
    """
    parts = text.split(":")
    if len(parts) == 3:
        start, stop, step = (float(x) for x in parts)
        _check_finite([start, stop, step], f"grid {text!r}")
        if step <= 0:
            raise ValueError("grid step must be positive")
        # a float count (a huge range cannot overflow int()); a reversed range is empty
        count = max(0.0, np.floor((stop - start) / step + 0.5) + 1)
        _check_cap(count, _GRID_CAP, f"grid {text!r} point count")
        return [start + i * step for i in range(int(count))]
    values = [float(x) for x in text.split(",") if x.strip() != ""]
    _check_finite(values, f"grid {text!r}")
    _check_cap(len(values), _GRID_CAP, "grid point count")
    return values


def cmd_sweep(args) -> int:
    family = args.family
    rows: list[dict] = []
    if family == "ghz-noise":
        grid = _grid_range(args.grid)
        if not grid:
            raise ValueError("empty grid")
        ghz = ghz_state(3, 2)
        proj = ghz.density().matrix
        for p in grid:
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"noise weight {p} outside [0, 1]")
            rho = DensityMatrix((1 - p) * proj + p * np.eye(8) / 8, (2, 2, 2))
            row = {"p": p, "purity": purity(rho)}
            for part, (flag, mineig) in _ppt_sweep(rho).items():
                row[f"ppt_{part}"] = int(flag)
                row[f"mineig_{part}"] = mineig
            rows.append(row)
    elif family == "phi-a":
        values = [
            _parse_complex(tok) for tok in args.grid.split(",") if tok.strip() != ""
        ]
        if not values:
            raise ValueError("empty grid")
        for a in values:
            psi = phi_a_state(a)
            row = {"a_re": a.real, "a_im": a.imag}
            for k in range(psi.n_parties):
                row[f"lambda_{k}"] = float(_marginal_spectrum(psi, [k]).min())
            rows.append(row)
    elif family == "acin-grid":
        points = [tok for tok in args.grid.split(";") if tok.strip() != ""]
        if not points:
            raise ValueError("empty grid")
        for tok in points:
            vals = _parse_floats(tok)
            if len(vals) not in (5, 6):
                raise ValueError("acin-grid points need r0..r4 and optional theta")
            theta = vals[5] if len(vals) == 6 else 0.0
            psi = acin_state(vals[:5], theta)
            t1, t2, t3 = tangles(psi)
            row = {f"r{i}": vals[i] for i in range(5)}
            row.update({"theta": theta, "tau1": t1, "tau2": t2, "tau3": t3})
            rows.append(row)
    else:
        raise ValueError(f"unknown family {family!r}")
    _emit_rows(rows, list(rows[0].keys()), args.format, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# demos and tables
# ---------------------------------------------------------------------------

def cmd_teleport_demo(args) -> int:
    d = args.d
    rng = np.random.default_rng(args.seed)
    psi = random_pure_state([d], rng=rng)
    outcomes = teleport(psi, d)
    branches = []
    for br in outcomes:
        fid = float(np.vdot(psi.amplitudes, br.post_state.matrix @ psi.amplitudes).real)
        branches.append(
            {"label": list(br.label), "probability": br.probability, "fidelity": fid}
        )
    _emit_json({"d": d, "branches": branches}, args.out)
    return EXIT_OK


def cmd_unlock_demo(args) -> int:
    outcomes = unlock_smolin(tuple(args.pair))
    branches = [
        {
            "label": br.label,
            "probability": br.probability,
            "remaining_pair_tangle": wootters_concurrence(br.post_state) ** 2,
        }
        for br in outcomes
    ]
    _emit_json({"pair": args.pair.upper(), "branches": branches}, args.out)
    return EXIT_OK


def _parse_span(text: str) -> range:
    if ":" in text:
        lo, hi = text.split(":")
        return range(int(lo), int(hi) + 1)
    v = int(text)
    return range(v, v + 1)


def cmd_ame_table(args) -> int:
    ns, ds = _parse_span(args.n), _parse_span(args.d)
    # range lengths from the bounds: len() overflows past sys.maxsize
    count = max(0, ns.stop - ns.start) * max(0, ds.stop - ds.start)
    _check_cap(count, _GRID_CAP, "ame-table row count")
    rows = []
    for n in ns:
        for d in ds:
            verdict = ame_feasibility(n, d)
            rows.append(
                {"n": n, "d": d, "verdict": verdict.feasible.value, "rule": verdict.reason}
            )
    _emit_rows(rows, ["n", "d", "verdict", "rule"], args.format, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entkit",
        description="Multipartite entanglement toolkit command line",
    )
    parser.add_argument("--version", action="version", version=f"entkit {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="random seed for optimizers")
    common.add_argument("--tol", type=float, default=1e-10, help="optimizer tolerance")
    common.add_argument("--out", default=None, help="output file (default: stdout)")
    common.add_argument(
        "--format", choices=("json", "csv"), default="csv",
        help="tabular output format (sweep, ame-table)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("make", parents=[common], help="construct a named state")
    p.add_argument("state", choices=tuple(_STATES))
    p.add_argument("--d", type=int, default=2, help="local dimension")
    p.add_argument("--n", type=int, default=3, help="party count")
    p.add_argument("--lam", default=None, help="comma-separated probability vector")
    p.add_argument("--edges", default=None, help="graph edges, e.g. 0-1,1-2")
    p.add_argument("--vertices", type=int, default=None, help="vertex count override")
    p.add_argument("--a", default="1", help="complex parameter for phi-a")
    p.add_argument("--r", default=None, help="five comma-separated amplitudes for acin")
    p.add_argument("--theta", type=float, default=0.0, help="phase for acin")
    p.set_defaults(func=cmd_make)

    p = sub.add_parser("analyze", parents=[common], help="analyze a state document")
    p.add_argument("input", help="state document path, or - for stdin")
    p.add_argument("--which", default="class,schmidt,ppt", help="comma-separated sections")
    p.add_argument("--bipartition", default=None, help="cut, e.g. 0,1|2")
    p.add_argument("--restarts", type=int, default=32, help="geometric-measure restarts, 1-1000")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("convert-check", parents=[common], help="Nielsen convertibility")
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--bipartition", default=None)
    p.add_argument("--catalyst-dim", type=int, default=None)
    p.add_argument("--catalyst-grid", type=int, default=100)
    p.set_defaults(func=cmd_convert_check)

    p = sub.add_parser("sweep", parents=[common], help="parameter sweeps to CSV")
    p.add_argument("--family", required=True, choices=("ghz-noise", "phi-a", "acin-grid"))
    p.add_argument(
        "--grid", required=True,
        help="grid specification; ghz-noise takes start:stop:step or a comma list "
        f"of at most {_GRID_CAP} points",
    )
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("teleport-demo", parents=[common], help="teleportation outcome table")
    p.add_argument("--d", type=int, default=2)
    p.set_defaults(func=cmd_teleport_demo)

    p = sub.add_parser("unlock-demo", parents=[common], help="Smolin unlocking outcomes")
    p.add_argument("--pair", default="CD", help="joined pair, e.g. CD")
    p.set_defaults(func=cmd_unlock_demo)

    p = sub.add_parser("ame-table", parents=[common], help="AME feasibility table")
    p.add_argument("--n", default="2:8", help="party range lo:hi")
    p.add_argument("--d", default="2:8", help=f"dimension range lo:hi; {_GRID_CAP} rows at most")
    p.set_defaults(func=cmd_ame_table)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConvergenceError as exc:
        print(f"entkit: no convergence: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except (ValueError, SizeLimitError, OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"entkit: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
