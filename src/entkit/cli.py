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
from .core import ConvergenceError, SizeLimitError
from .invariants import lu_invariants, polytope_coords, slocc_class_3qubit, tangles
from .measures import geometric_measure
from .partitions import Partition, _ppt_sweep, classify_pure, single_party_bipartition
from .protocols import teleport, unlock_smolin
from .schmidt import RANK_TOL, find_catalyst, nielsen_convertible, schmidt_vector
from .serialize import from_document, to_document
from .special import ame_feasibility
from .states import (
    DensityMatrix,
    PureState,
    _check_vertex_count,
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
        return from_document(json.load(sys.stdin))
    with open(path, encoding="utf-8") as fh:
        return from_document(json.load(fh))


def _parse_complex(text: str) -> complex:
    return complex(text.strip().replace("i", "j"))


def _parse_floats(text: str) -> list[float]:
    return [float(x) for x in text.split(",") if x.strip() != ""]


def _parse_bipartition(text: str, n: int) -> Partition:
    # "0,1|2" style
    sides = text.split("|")
    if len(sides) != 2:
        raise ValueError(f"bipartition must have two blocks, got {text!r}")
    blocks = tuple(tuple(int(i) for i in s.split(",") if i.strip() != "") for s in sides)
    part = Partition(blocks)
    if part.n_parties != n:
        raise ValueError(f"bipartition covers {part.n_parties} parties, state has {n}")
    return part


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
        a, b = token.split("-")
        a, b = int(a), int(b)
        edges.append((a, b))
        hi = max(hi, a, b)
    m = (hi + 1) if vertices is None else vertices
    _check_vertex_count(m)
    if hi >= m:
        raise ValueError(f"edge endpoint {hi} outside the {m} vertices 0..{m - 1}")
    adj = np.zeros((m, m), dtype=int)
    for a, b in edges:
        adj[a, b] = adj[b, a] = 1
    return adj


def cmd_make(args) -> int:
    name = args.state
    if name == "bell":
        state = bell_state(args.d)
    elif name == "ghz":
        lam = _parse_floats(args.lam) if args.lam else None
        state = ghz_state(args.n, args.d, lam)
    elif name == "w":
        state = w_state()
    elif name == "graph":
        if not args.edges:
            raise ValueError("graph requires --edges, e.g. --edges 0-1,1-2")
        state = graph_state(_parse_edges(args.edges, args.vertices))
    elif name == "smolin":
        state = smolin_state()
    elif name == "upb":
        state = upb_state()
    elif name == "psi25":
        state = psi25_state()
    elif name == "phi-a":
        state = phi_a_state(_parse_complex(args.a))
    elif name == "acin":
        if not args.r:
            raise ValueError("acin requires --r r0,r1,r2,r3,r4")
        state = acin_state(_parse_floats(args.r), args.theta)
    else:
        raise ValueError(f"unknown state name {name!r}")
    _emit_json(to_document(state, name=name), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

_ANALYSES = ("invariants", "tangles", "class", "schmidt", "ppt", "polytope", "geometric-measure")


def cmd_analyze(args) -> int:
    state = _read_state(args.input)
    which = [w.strip() for w in args.which.split(",") if w.strip()]
    for w in which:
        if w not in _ANALYSES:
            raise ValueError(f"unknown analysis {w!r}; choose from {', '.join(_ANALYSES)}")
    report: dict = {"dims": list(state.dims)}
    exit_code = EXIT_OK
    is_pure = isinstance(state, PureState)
    is_3q = state.dims == (2, 2, 2)

    for w in which:
        if w == "invariants":
            report[w] = lu_invariants(state).to_json() if (is_pure and is_3q) else "inapplicable"
        elif w == "tangles":
            if is_pure and is_3q:
                t1, t2, t3 = tangles(state)
                report[w] = {"tau1": t1, "tau2": t2, "tau3": t3}
            else:
                report[w] = "inapplicable"
        elif w == "class":
            if is_pure:
                rep = classify_pure(state)
                entry = {
                    "finest_product_partition": rep.finest_product_partition.to_json(),
                    "producibility_m": rep.producibility_m,
                    "genuinely_multipartite": rep.genuinely_multipartite,
                }
                if is_3q:
                    entry["slocc_class"] = slocc_class_3qubit(state).value
                report[w] = entry
            else:
                report[w] = "inapplicable"
        elif w == "schmidt":
            if not is_pure or state.n_parties < 2:
                report[w] = "inapplicable"
            elif args.bipartition:
                part = _parse_bipartition(args.bipartition, state.n_parties)
                report[w] = _schmidt_entry(state, part)
            elif state.n_parties == 2:
                report[w] = _schmidt_entry(state, None)
            else:
                report[w] = {
                    str(part): _schmidt_entry(state, part)
                    for part in (
                        single_party_bipartition(k, state.n_parties)
                        for k in range(state.n_parties)
                    )
                }
        elif w == "ppt":
            if state.n_parties < 2:
                report[w] = "inapplicable"
            else:
                report[w] = {
                    str(part): {"ppt": flag, "min_eigenvalue": mineig}
                    for part, (flag, mineig) in _ppt_sweep(state).items()
                }
        elif w == "polytope":
            report[w] = list(polytope_coords(state)) if (is_pure and is_3q) else "inapplicable"
        elif w == "geometric-measure":
            if is_pure:
                res = geometric_measure(state, restarts=args.restarts, tol=args.tol, seed=args.seed)
                report[w] = {
                    "value": res.value,
                    "restarts_used": res.restarts_used,
                    "converged": res.converged,
                }
                if not res.converged:
                    exit_code = EXIT_NO_CONVERGENCE
            else:
                report[w] = "inapplicable"
    _emit_json(report, args.out)
    return exit_code


def _schmidt_entry(state: PureState, part) -> dict:
    # entanglement_entropy and schmidt_rank, read from one Schmidt vector
    lam = schmidt_vector(state, part)
    return {
        "lambda": [float(x) for x in lam],
        "entropy": shannon_entropy(lam),
        "rank": int((lam > RANK_TOL).sum()),
    }


# ---------------------------------------------------------------------------
# convert-check
# ---------------------------------------------------------------------------

def cmd_convert_check(args) -> int:
    source = _read_state(args.source)
    target = _read_state(args.target)
    if not isinstance(source, PureState) or not isinstance(target, PureState):
        raise ValueError("convert-check requires pure states")
    if source.dims != target.dims:
        raise ValueError(f"dims mismatch: {source.dims} vs {target.dims}")
    part = (
        _parse_bipartition(args.bipartition, source.n_parties)
        if args.bipartition
        else None
    )
    forward = nielsen_convertible(source, target, part)
    backward = nielsen_convertible(target, source, part)
    out = {
        "convertible": forward,
        "reverse_convertible": backward,
        "schmidt_source": [float(x) for x in schmidt_vector(source, part)],
        "schmidt_target": [float(x) for x in schmidt_vector(target, part)],
    }
    if not forward and args.catalyst_dim:
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
        if not np.isfinite([start, stop, step]).all():
            raise ValueError(f"grid {text!r} has a non-finite start, stop or step")
        if step <= 0:
            raise ValueError("grid step must be positive")
        # a float count, so that a huge range cannot overflow int()
        count = np.floor((stop - start) / step + 0.5) + 1
        if count > _GRID_CAP:
            raise SizeLimitError(f"grid {text!r} has more than {_GRID_CAP} points")
        return [start + i * step for i in range(int(count))]
    values = [float(x) for x in text.split(",") if x.strip() != ""]
    if not np.isfinite(values).all():
        raise ValueError(f"grid {text!r} has a non-finite value")
    if len(values) > _GRID_CAP:
        raise SizeLimitError(f"grid has {len(values)} points, more than {_GRID_CAP}")
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
    from .invariants import wootters_concurrence

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
    if count > _GRID_CAP:
        raise SizeLimitError(f"ame-table spans have {count} rows, more than {_GRID_CAP}")
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
    p.add_argument("state", choices=(
        "bell", "ghz", "w", "graph", "smolin", "upb", "psi25", "phi-a", "acin",
    ))
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
    p.add_argument("--restarts", type=int, default=32)
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
