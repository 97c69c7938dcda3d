"""One boundary contract for the public API.

Every callable that ``entkit`` exports has a row: a call that takes one
argument, a good value for it and a bad one.  The good value must pass, and
the bad one must raise ``ValueError`` (``SizeLimitError`` for a size cap)
with a message that matches the row.  A name that takes no checked argument
is exempt, and says why.  A newly exported name with neither a row nor an
exemption fails the test.
"""

import io
import json
import types

import numpy as np
import pytest

import entkit as ek

from conftest import UNPHYSICAL_MATRICES, mixed_document

_NAN, _INF = float("nan"), float("inf")
_BELL = ek.bell_state(2)
_GHZ = ek.ghz_state(3, 2)
_ZERO = ek.basis_state([2], [0])
_CUT = ek.Partition(((0,), (1, 2)))
_TWO_OF_THREE = ek.Partition(((0,), (1,)))
_BELL_DOC = ek.to_document(_BELL)
_SIZE = ek.SizeLimitError

_RECORD = "a result record the library builds; it checks nothing"
_ENUM = "an enum of verdicts"
_ERROR = "an exception class"
_NO_ARGUMENT = "takes no argument"
_STATE_ONLY = ("its arguments are a state, checked by its constructor, and free "
               "text; a state of the wrong type is out of scope")

#: name -> reason it has no row
EXEMPT = {
    "AcinCanonicalForm": _RECORD,
    "AmeVerdict": _RECORD,
    "BranchOutcome": _RECORD,
    "ClassificationReport": _RECORD,
    "InvariantRecord": _RECORD,
    "OptimizationResult": _RECORD,
    "SchmidtData": _RECORD,
    "Feasibility": _ENUM,
    "SloccClass": _ENUM,
    "ConvergenceError": _ERROR,
    "SizeLimitError": _ERROR,
    "bell_basis_2q": _NO_ARGUMENT,
    "psi25_state": _NO_ARGUMENT,
    "smolin_state": _NO_ARGUMENT,
    "upb_basis": _NO_ARGUMENT,
    "upb_state": _NO_ARGUMENT,
    "w_state": _NO_ARGUMENT,
    "as_density": _STATE_ONLY,
    "purity": _STATE_ONLY,
}


def _mixed_for_pure(call, good=_GHZ, message=r"^expected a PureState, got DensityMatrix"):
    """The row that passes the projector of a pure state where a ``PureState`` belongs."""
    return (call, good, good.density(), ValueError, message)


def _array_for_state(call, good=_GHZ, message=r"^expected a PureState, got ndarray"):
    """The row that passes the amplitudes of a state where the state belongs."""
    return (call, good, good.amplitudes, ValueError, message)


def _unphysical(call, good, as_input=lambda m: m):
    """The rows that pass, through ``as_input``, a matrix that is not positive,
    not Hermitian or not of trace 1 where a state's matrix enters."""
    return [(call, good, as_input(m), ValueError, message)
            for m, message in UNPHYSICAL_MATRICES]


def _bare_dims(call, good, bad=2):
    """The row that passes a bare integer, or ``None``, where the sequence of
    local dimensions belongs."""
    return (call, good, bad, ValueError, rf"^dims must be a sequence of local dimensions, got {bad}$")


def _roof(rho):
    return ek.convex_roof(rho, ek.tangle_pure, restarts=1, maxiter=1, seed=0)


def _three_qubit(name, row=None):
    call = getattr(ek, name)
    return [row or (call, _GHZ, _BELL, ValueError, r"^expected a 3-qubit state"),
            _mixed_for_pure(call, message=r"^expected a 3-qubit state, got DensityMatrix")]


#: name -> (call(value), good value, bad value, error, message pattern), or a
#: list of such rows
ROWS = {
    "DensityMatrix": [(lambda m: ek.DensityMatrix(m, (2,)), np.eye(2) / 2,
                       np.diag([_NAN, 1.0]), ValueError, r"^density matrix entries must be finite"),
                      *_unphysical(lambda m: ek.DensityMatrix(m, (2,)), np.eye(2) / 2),
                      (lambda m: ek.DensityMatrix(m, (2, 2)), np.eye(4) / 4, np.eye(3) / 3,
                       ValueError, r"^matrix shape \(3, 3\) does not match dims \(2, 2\)"),
                      _bare_dims(lambda dims: ek.DensityMatrix(np.eye(2) / 2, dims), (2,))],
    "PureState": [(lambda a: ek.PureState(a, (2,)), [1.0, 0.0], [_NAN, 0.0], ValueError,
                   r"^state norm nan is not 1"),
                  (lambda dims: ek.PureState([1.0, 0.0], dims), (1, 2), (True, 2), ValueError,
                   r"^local dimensions must be integers, got \(True, 2\)"),
                  _bare_dims(lambda dims: ek.PureState([1.0, 0.0], dims), (2,))],
    "Instrument": [(lambda k: ek.Instrument((("a", (k,)),), dims=(2,)), np.eye(2),
                    np.full((2, 2), _NAN), ValueError, r"^branch 'a' Kraus operators must be finite"),
                   (lambda k: ek.Instrument((("a", (k,)),), dims=(2,)), np.eye(2), np.eye(2) / 2,
                    ValueError, r"^instrument is not trace preserving within 1e-9"),
                   # an isometry into 5000 levels: refused when built, not when applied
                   (lambda k: ek.Instrument((("a", (k,)),), dims=(2,)), np.eye(3, 2),
                    np.eye(5000, 2), _SIZE, r"^Kraus output dimension 5000 exceeds the cap 4096")],
    "Partition": (lambda b: ek.Partition(b), ((0,), (1,)), ((0,), (0.5,)), ValueError,
                  r"^subsystem indices must be integers"),
    "acin_canonical_form": _three_qubit("acin_canonical_form", (
        lambda t: ek.acin_canonical_form(_GHZ, t), 1e-8, _NAN, ValueError, r"^tol must be finite")),
    "acin_state": (lambda t: ek.acin_state([1, 0, 0, 0, 0], t), 0.0, _NAN, ValueError,
                   r"^theta must be finite"),
    "all_bipartitions": [(ek.all_bipartitions, 3, 2.5, ValueError, r"^n must be an integer"),
                         (ek.all_bipartitions, 2, 1, ValueError, r"^need at least 2 parties")],
    "ame_feasibility": (lambda n: ek.ame_feasibility(n, 2), 3, 4.5, ValueError,
                        r"^n must be an integer"),
    "basis_state": [(lambda o: ek.basis_state([2, 2], o), [0, 1], [0.5, 0], ValueError,
                     r"^occupation\[0\] must be an integer"),
                    (lambda o: ek.basis_state([2, 2], o), [1, 1], [0, 2], ValueError,
                     r"^occupation \[0, 2\] invalid for dims \(2, 2\)")],
    "bell_state": (ek.bell_state, 2, 65, _SIZE, r"^total dimension 4225 exceeds the cap 4096"),
    "catalysis_convertible": [(lambda phi: ek.catalysis_convertible(_BELL, phi, _BELL), _BELL,
                               ek.bell_state(3), ValueError, r"^dims mismatch"),
                              (lambda eta: ek.catalysis_convertible(_BELL, _BELL, eta), _BELL,
                               _GHZ, ValueError, r"^catalyst must be a bipartite pure state"),
                              _mixed_for_pure(
                                  lambda psi: ek.catalysis_convertible(psi, _BELL, _BELL), _BELL),
                              _array_for_state(
                                  lambda eta: ek.catalysis_convertible(_BELL, _BELL, eta), _BELL)],
    "classify_pure": [(ek.classify_pure, _GHZ, ek.ghz_state(9, 2), _SIZE,
                       r"^classification party count 9 exceeds the cap 8"),
                      _mixed_for_pure(ek.classify_pure), _array_for_state(ek.classify_pure)],
    "combing_entropy_profile": [(lambda a: ek.combing_entropy_profile(_GHZ, a, [[1], [2]]), 0,
                                 0.5, ValueError, r"^subsystem indices must be integers"),
                                (lambda b: ek.combing_entropy_profile(_GHZ, 0, b), [[1], [2]],
                                 [[1]], ValueError,
                                 r"^A party plus blocks cover 2 parties, state has 3"),
                                _array_for_state(lambda psi: ek.combing_entropy_profile(
                                    psi, 0, [[1], [2]]))],
    "concurrence_pure": [(lambda p: ek.concurrence_pure(_GHZ, p), _CUT, _TWO_OF_THREE,
                          ValueError, r"^partition covers 2 parties, state has 3"),
                         _mixed_for_pure(lambda psi: ek.concurrence_pure(psi, _CUT)),
                         _array_for_state(lambda psi: ek.concurrence_pure(psi, _CUT))],
    "conditional_entropy": (lambda b: ek.conditional_entropy(_BELL, [0], b), [1], [5],
                            ValueError, r"^b \[5\] out of range"),
    "convex_roof": [(_roof, _BELL.density(), ek.random_density_matrix([2] * 5, rank=1, rng=0),
                     _SIZE, r"^convex roof dimension 32 exceeds the cap 16"),
                    _array_for_state(_roof, _BELL, message=(
                        r"^expected PureState or DensityMatrix, got ndarray")),
                    (_roof, _BELL, _BELL.amplitudes.tolist(), ValueError,
                     r"^expected PureState or DensityMatrix, got list")],
    "dump_state": _array_for_state(lambda s: ek.dump_state(s, io.StringIO()), message=(
        r"^expected PureState or DensityMatrix, got ndarray")),
    "entanglement_entropy": [(lambda b: ek.entanglement_entropy(_BELL, base=b), 2, 1,
                              ValueError, r"^base must be finite"),
                             _mixed_for_pure(ek.entanglement_entropy, _BELL),
                             _array_for_state(ek.entanglement_entropy, _BELL)],
    "entanglement_swap": (ek.entanglement_swap, _BELL, _GHZ, ValueError,
                          r"^expected a state on two subsystems"),
    "enumerate_partitions": [(ek.enumerate_partitions, 3, 9, _SIZE,
                              r"^partition enumeration party count 9 exceeds the cap 8"),
                             (ek.enumerate_partitions, 1, 0, ValueError, r"^n must be >= 1")],
    "find_catalyst": [(lambda phi: ek.find_catalyst(_BELL, phi, grid_resolution=4),
                       ek.basis_state([2, 2], [0, 0]), ek.bell_state(3), ValueError,
                       r"^dims mismatch"),
                      _mixed_for_pure(lambda psi: ek.find_catalyst(
                          psi, ek.basis_state([2, 2], [0, 0]), grid_resolution=4), _BELL),
                      _array_for_state(lambda phi: ek.find_catalyst(
                          _BELL, phi, grid_resolution=4), ek.basis_state([2, 2], [0, 0]))],
    "from_document": [(ek.from_document, _BELL_DOC, dict(_BELL_DOC, dims=[2.5, 2]), ValueError,
                       r"^local dimensions must be integers"),
                      (ek.from_document, mixed_document(np.eye(2) / 2),
                       {"dims": [2], "type": "mixed"}, ValueError,
                       r"^mixed document lacks 'matrix'"),
                      *_unphysical(ek.from_document, mixed_document(np.eye(2) / 2), mixed_document)],
    "geometric_measure": [(lambda psi: ek.geometric_measure(psi, restarts=1, max_iterations=1,
                                                            seed=0),
                           _GHZ, ek.ghz_state(11, 2), _SIZE,
                           r"^geometric measure dimension 2048 exceeds the cap 1024"),
                          _mixed_for_pure(lambda psi: ek.geometric_measure(
                              psi, restarts=1, max_iterations=1, seed=0))],
    "ghz_stabilizer_check": (lambda p: ek.ghz_stabilizer_check(p, 0.0), 0.3, _NAN, ValueError,
                             r"^phi1 must be finite"),
    "ghz_stabilizer_elements": (lambda p: ek.ghz_stabilizer_elements(0.3, p), 0.5, _INF,
                                ValueError, r"^phi2 must be finite"),
    "ghz_state": [(lambda lam: ek.ghz_state(3, 2, lam), [0.5, 0.5], [0.6, 0.5], ValueError,
                   r"^lambda sums to 1\.1, not 1 within 1e-10"),
                  (lambda lam: ek.ghz_state(3, 2, lam), [0.5, 0.5], [1.0], ValueError,
                   r"^lambda must be 2 numbers"),
                  (lambda d: ek.ghz_state(3, d), 2, 1, ValueError,
                   r"^local dimension must be >= 2, got 1")],
    "graph_state": [(lambda m: ek.graph_state(np.zeros((m, m), dtype=int)), 3, 13, _SIZE,
                     r"^graph vertex count 13 exceeds the cap 12"),
                    (ek.graph_state, [[0, 1], [1, 0]], np.zeros((0, 0), dtype=int), ValueError,
                     r"^adjacency must be a non-empty square matrix"),
                    (ek.graph_state, [[0, 1], [1, 0]], [[0, 2], [2, 0]], ValueError,
                     r"^adjacency entries must be 0 or 1")],
    "hyperdet3": (ek.hyperdet3, np.zeros(8), [_NAN] * 8, ValueError,
                  r"^tensor entries must be finite"),
    "is_ame": [(lambda t: ek.is_ame(_GHZ, t), 1e-8, _NAN, ValueError, r"^tol must be finite"),
               _mixed_for_pure(ek.is_ame), _array_for_state(ek.is_ame)],
    "is_lme": [(lambda t: ek.is_lme(_GHZ, t), 1e-8, -1.0, ValueError, r"^tol must be finite"),
               _mixed_for_pure(ek.is_lme), _array_for_state(ek.is_lme)],
    "is_product_across": [(lambda p: ek.is_product_across(_GHZ, p), _CUT, _TWO_OF_THREE,
                           ValueError, r"^partition does not match"),
                          _mixed_for_pure(lambda psi: ek.is_product_across(psi, _CUT)),
                          _array_for_state(lambda psi: ek.is_product_across(psi, _CUT))],
    "kempe_invariant": _three_qubit("kempe_invariant"),
    "kempe_symmetric_check": _three_qubit("kempe_symmetric_check"),
    "load_state": [(lambda text: ek.load_state(io.StringIO(text)),
                    '{"dims": [2], "type": "pure", "amplitudes": [[1, 0], [0, 0]]}',
                    '{"dims": [2], "type": "pure", "amplitudes": [[2, 0], [0, 0]]}', ValueError,
                    r"^state norm 2\.0 is not 1"),
                   *_unphysical(lambda text: ek.load_state(io.StringIO(text)),
                                json.dumps(mixed_document(np.eye(2) / 2)),
                                lambda m: json.dumps(mixed_document(m)))],
    "local_filter": [(lambda f: ek.local_filter(_BELL, [f, np.eye(2)]), np.eye(2) / 2,
                      np.full((2, 2), _NAN), ValueError, r"^filter must be finite"),
                     (lambda f: ek.local_filter(_BELL, [f, np.eye(2)]), np.eye(2) / 2, np.eye(3),
                      ValueError, r"^filter shape \(3, 3\) does not match local dim 2")],
    "local_filter_pure": [(lambda f: ek.local_filter_pure(_BELL, [f, np.eye(2)], rescale=True),
                           2 * np.eye(2), np.full((2, 2), _INF), ValueError,
                           r"^filter must be finite"),
                          _mixed_for_pure(lambda psi: ek.local_filter_pure(
                              psi, [np.eye(2), np.eye(2)]), _BELL)],
    "lu_invariants": _three_qubit("lu_invariants"),
    "majorizes": (lambda p: ek.majorizes(p, [0.5, 0.5]), [1, 0], [0.6, 0.5], ValueError,
                  r"^p sums to 1\.1, not 1 within 1e-10"),
    "merging_rate": (lambda a: ek.merging_rate(_GHZ, a, [1]), [0], [0.5], ValueError,
                     r"^subsystem indices must be integers"),
    "meyer_wallach": [(ek.meyer_wallach, _GHZ, ek.bell_state(3), ValueError,
                       r"^qubit systems only"),
                      _mixed_for_pure(ek.meyer_wallach), _array_for_state(ek.meyer_wallach)],
    "monogamy_gap": _three_qubit("monogamy_gap"),
    "multipartite_concurrence": [(lambda w: ek.multipartite_concurrence(_BELL, {(-1, -1): w}),
                                  1.0, _NAN, ValueError, r"^weight must be finite"),
                                 _mixed_for_pure(lambda psi: ek.multipartite_concurrence(
                                     psi, {(-1, -1): 1.0}), _BELL),
                                 (lambda p: ek.multipartite_concurrence(_BELL, p),
                                  {(-1, -1): 1.0}, [((-1, -1), 1.0)], ValueError,
                                  r"^p must map sign patterns to weights, got list")],
    "nielsen_convertible": [(lambda phi: ek.nielsen_convertible(_BELL, phi), _BELL,
                             ek.bell_state(3), ValueError, r"^dims mismatch"),
                            _mixed_for_pure(lambda psi: ek.nielsen_convertible(psi, _BELL),
                                            _BELL),
                            _array_for_state(lambda phi: ek.nielsen_convertible(_BELL, phi),
                                             _BELL)],
    "partial_trace": (lambda k: ek.partial_trace(_GHZ, k), [0], [3], ValueError,
                      r"^keep \[3\] out of range"),
    "partial_trace_matrix": [(lambda k: ek.partial_trace_matrix(np.eye(4) / 4, (2, 2), k), [0],
                              [0.5], ValueError, r"^subsystem indices must be integers"),
                             (lambda m: ek.partial_trace_matrix(m, (2, 2), [0]), np.eye(4) / 4,
                              np.eye(3) / 3, ValueError,
                              r"^matrix shape \(3, 3\) does not match dims \(2, 2\)"),
                             _bare_dims(lambda dims: ek.partial_trace_matrix(np.eye(4) / 4, dims, [0]),
                                        (4,), 4)],
    "partial_transpose": (lambda s: ek.partial_transpose(_BELL, s), [0], [0, 1], ValueError,
                          r"^subset must be a proper subset"),
    "phi_a_state": (ek.phi_a_state, 1.0, complex(_NAN, 0), ValueError, r"^a must be finite"),
    "polytope_coords": _three_qubit("polytope_coords"),
    "ppt_all_bipartitions": [(ek.ppt_all_bipartitions, _GHZ, ek.ghz_state(7, 2), _SIZE,
                              r"^PPT sweep party count 7 exceeds the cap 6"),
                             _array_for_state(ek.ppt_all_bipartitions, message=(
                                 r"^expected PureState or DensityMatrix, got ndarray"))],
    "ppt_check": (lambda p: ek.ppt_check(_GHZ, p), _CUT, [[0], [1], [2]], ValueError,
                  r"^expected 2 blocks"),
    "product_state": [(lambda fs: ek.product_state(*fs), [_BELL], [], ValueError,
                       r"^need at least one factor"),
                      _array_for_state(lambda psi: ek.product_state(_BELL, psi))],
    "random_density_matrix": [(lambda r: ek.random_density_matrix([2, 2], rank=r, rng=0), 2,
                               1.5, ValueError, r"^rank must be an integer"),
                              (lambda r: ek.random_density_matrix([2, 2], rank=r, rng=0), 4,
                               0, ValueError, r"^rank must be in 1\.\.4"),
                              _bare_dims(lambda dims: ek.random_density_matrix(dims, rng=0), [3], 3)],
    "random_pure_state": [(lambda rng: ek.random_pure_state([2], rng=rng), 0, _NAN, ValueError,
                           r"^rng must be None"),
                          _bare_dims(lambda dims: ek.random_pure_state(dims, rng=0), [2]),
                          _bare_dims(lambda dims: ek.random_pure_state(dims, rng=0), [2], None)],
    "refines": (lambda a: ek.refines(_TWO_OF_THREE, a), ek.Partition(((0, 1),)),
                ek.Partition(((0,), (1,), (2,))), ValueError,
                r"^partitions are over different party sets"),
    "schmidt": [(lambda p: ek.schmidt(_GHZ, p), _CUT, None, ValueError,
                 r"^bipartition may be omitted only"),
                _mixed_for_pure(lambda psi: ek.schmidt(psi, _CUT)),
                _array_for_state(lambda psi: ek.schmidt(psi, _CUT))],
    "schmidt_rank": [(lambda t: ek.schmidt_rank(_BELL, tol=t), 1e-10, _INF, ValueError,
                      r"^tol must be finite"),
                     _mixed_for_pure(ek.schmidt_rank, _BELL),
                     _array_for_state(ek.schmidt_rank, _BELL)],
    "schmidt_vector": [(lambda p: ek.schmidt_vector(_GHZ, p), _CUT, [[0], [1], [2]],
                        ValueError, r"^expected 2 blocks"),
                       _mixed_for_pure(lambda psi: ek.schmidt_vector(psi, _CUT)),
                       _array_for_state(lambda psi: ek.schmidt_vector(psi, _CUT))],
    "shannon_entropy": (ek.shannon_entropy, [0.5, 0.5], [_NAN, 1.0], ValueError,
                        r"^p must have finite entries"),
    "slocc_class_3qubit": _three_qubit("slocc_class_3qubit", (
        lambda t: ek.slocc_class_3qubit(_GHZ, t), 1e-8, _NAN, ValueError,
        r"^tau3_tol must be finite")),
    "stabilizes": [(lambda u: ek.stabilizes(u, _GHZ), np.eye(8), np.full((8, 8), _NAN),
                    ValueError, r"^unitary must be finite"),
                   _mixed_for_pure(lambda psi: ek.stabilizes(np.eye(8), psi))],
    "tangle_pure": [(lambda p: ek.tangle_pure(_GHZ, p), _CUT, _TWO_OF_THREE, ValueError,
                     r"^partition covers 2 parties, state has 3"),
                    _mixed_for_pure(lambda psi: ek.tangle_pure(psi, _CUT)),
                    _array_for_state(lambda psi: ek.tangle_pure(psi, _CUT))],
    "tangles": _three_qubit("tangles"),
    "teleport": [(ek.teleport, _ZERO, ek.basis_state([1], [0]), ValueError,
                  r"^local dimension must be >= 2"),
                 _array_for_state(ek.teleport, _ZERO, message=(
                     r"^expected PureState or DensityMatrix, got ndarray"))],
    "teleportation_kraus": (ek.teleportation_kraus, 2, 1, ValueError,
                            r"^local dimension must be >= 2"),
    "tensor_rank_upper_bound": [(lambda psi: ek.tensor_rank_upper_bound(
                                     psi, max_rank=1, restarts=1, seed=0, iterations=1),
                                 _GHZ, ek.ghz_state(9, 2), _SIZE,
                                 r"^tensor rank dimension 512 exceeds the cap 256"),
                                _mixed_for_pure(lambda psi: ek.tensor_rank_upper_bound(
                                    psi, max_rank=1, restarts=1, seed=0, iterations=1))],
    "to_document": _array_for_state(ek.to_document, message=(
        r"^expected PureState or DensityMatrix, got ndarray")),
    "unlock_smolin": (ek.unlock_smolin, "CD", "CC", ValueError,
                      r"^pair must name two distinct parties"),
    "upb_unextendibility_check": [(lambda basis: ek.upb_unextendibility_check(
                                       basis, restarts=1, rng=0),
                                   [ek.basis_state([2, 2], [0, 0])],
                                   [ek.basis_state([2, 2], [0, 0]), _ZERO], ValueError,
                                   r"^dims mismatch"),
                                  (lambda basis: ek.upb_unextendibility_check(
                                      basis, restarts=1, rng=0),
                                   [ek.basis_state([2, 2], [0, 0])], [], ValueError,
                                   r"^basis must be non-empty"),
                                  (lambda basis: ek.upb_unextendibility_check(
                                      basis, restarts=1, rng=0),
                                   [ek.basis_state([2, 2], [0, 0])],
                                   [ek.basis_state([2] * 4, [0] * 4)], ValueError,
                                   r"^supported systems: up to 3 parties of qubits"),
                                  _mixed_for_pure(lambda v: ek.upb_unextendibility_check(
                                      [ek.basis_state([2, 2], [0, 0]), v], restarts=1, rng=0),
                                      ek.basis_state([2, 2], [0, 1]))],
    "von_neumann_entropy": (lambda b: ek.von_neumann_entropy(_BELL, b), 2, 1, ValueError,
                            r"^base must be finite"),
    "wootters_concurrence": [(ek.wootters_concurrence, _BELL.density(),
                              ek.DensityMatrix(np.eye(8) / 8, (2, 2, 2)), ValueError,
                              r"^expected a 2-qubit state"),
                             (ek.wootters_concurrence, _BELL.density(), _BELL, ValueError,
                              r"^expected a 2-qubit DensityMatrix, got PureState")],
}


def _exported() -> set[str]:
    return {name for name in dir(ek) if not name.startswith("_")
            and not isinstance(getattr(ek, name), types.ModuleType)}


@pytest.mark.parametrize("name", sorted(_exported() | ROWS.keys() | EXEMPT.keys()))
def test_public_callable_rejects_a_bad_argument(name):
    assert name in _exported(), f"{name} has a row or an exemption but is not exported"
    assert (name in ROWS) != (name in EXEMPT), f"{name} needs exactly one row or exemption"
    if name in EXEMPT:
        assert EXEMPT[name]
        return
    rows = ROWS[name] if isinstance(ROWS[name], list) else [ROWS[name]]
    for call, good, bad, error, message in rows:
        call(good)
        with pytest.raises(error, match=message):
            call(bad)
