import argparse
import functools
import gc
import io
import json
import os
import shlex
import sys
from pathlib import Path

import numpy as np
import orjson
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import entkit as ek
from conftest import UNPHYSICAL_MATRICES, mixed_document
from entkit import cli
from entkit.cli import main
from entkit.serialize import _complex_array, dump_state, from_document, load_state, to_document


def test_document_roundtrip_pure():
    psi = ek.random_pure_state([2, 3], rng=0)
    doc = to_document(psi, name="test")
    back = from_document(json.loads(json.dumps(doc)))
    assert isinstance(back, ek.PureState)
    assert back.dims == psi.dims
    assert np.array_equal(back.amplitudes, psi.amplitudes)


def test_document_roundtrip_mixed():
    rho = ek.random_density_matrix([2, 2], rng=1)
    doc = to_document(rho)
    back = from_document(json.loads(json.dumps(doc)))
    assert isinstance(back, ek.DensityMatrix)
    assert np.array_equal(back.matrix, rho.matrix)


def test_dump_and_load_file_helpers(tmp_path):
    path = tmp_path / "state.json"
    psi = ek.psi25_state()
    with open(path, "w") as fh:
        dump_state(psi, fh, name="five-qubit")
    with open(path) as fh:
        back = load_state(fh)
    assert back.isclose(psi, atol=0)
    assert json.loads(path.read_text())["name"] == "five-qubit"
    # a mixed document read back from a file, bit for bit
    rho = ek.random_density_matrix([2, 3, 4], rank=3, rng=2)
    with open(path, "w") as fh:
        dump_state(rho, fh)
    with open(path) as fh:
        back = load_state(fh)
    assert isinstance(back, ek.DensityMatrix) and back.dims == rho.dims
    assert np.array_equal(back.matrix, rho.matrix)


#: Doubles at the edges of the format: signed zeros, the least subnormal, the
#: least normal, the largest double, and two values whose shortest form
#: changes notation between writers (``1e16``; ``1e-05`` against ``0.00001``).
_EDGE_DOUBLES = [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 1e16, 1e-5]


def _edge_states() -> list:
    """A pure and a mixed state holding every edge double that a state can."""
    amplitudes = [0.6, complex(-0.0, 5e-324), complex(2.2250738585072014e-308, -0.0), 1e-5 + 0.8j]
    pure = ek.PureState(amplitudes, (2, 2))
    m = np.diag([0.25, 0.25, 0.4, 0.1]).astype(complex)
    m[0, 1], m[2, 3] = 1e-5 + 5e-324j, complex(-0.0, 2.2250738585072014e-308)
    m[1, 0], m[3, 2] = np.conj(m[0, 1]), np.conj(m[2, 3])
    return [pure, ek.DensityMatrix(m, (2, 2))]


def _values(state) -> np.ndarray:
    return state.amplitudes if isinstance(state, ek.PureState) else state.matrix


def _bits(state) -> np.ndarray:
    return _values(state).view(np.uint64)


def test_dump_state_round_trip_is_bit_exact(tmp_path):
    states = _edge_states() + [ek.random_pure_state([2, 3, 4], rng=3),
                               ek.random_density_matrix([3, 4], rank=2, rng=4), ek.psi25_state()]
    held = np.concatenate([_values(s).ravel().view(float) for s in _edge_states()])
    assert {5e-324, 2.2250738585072014e-308, 1e-5} <= set(held)
    assert ((held == 0) & np.signbit(held)).sum() >= 3  # -0.0 survives construction
    path = tmp_path / "state.json"
    for state in states:
        with open(path, "w", encoding="utf-8") as fh:
            dump_state(state, fh)
        with open(path, encoding="utf-8") as fh:
            back = load_state(fh)
        assert type(back) is type(state) and back.dims == state.dims
        assert np.array_equal(_bits(back), _bits(state))
    # the doubles no state can hold parse back bit for bit in the writer's number format
    edge = np.array(_EDGE_DOUBLES)
    text = orjson.dumps(edge, option=orjson.OPT_SERIALIZE_NUMPY)
    assert np.array_equal(np.array(orjson.loads(text)).view(np.uint64), edge.view(np.uint64))


def test_dump_state_writes_one_compact_layout():
    """``dump_state`` writes the text of ``orjson.dumps(to_document(...))``:
    no whitespace, shortest round-trip floats, one final newline."""
    for state in _edge_states() + [ek.random_density_matrix([2, 3], rng=5), ek.psi25_state()]:
        buf = io.StringIO()
        dump_state(state, buf, name="n")
        text = buf.getvalue()
        assert text == orjson.dumps(to_document(state, name="n")).decode() + "\n"
        assert text.count("\n") == 1 and " " not in text


def test_to_document_keeps_the_per_element_pairs():
    """``to_document`` builds the same plain lists of Python floats as a loop
    of ``[float(z.real), float(z.imag)]``, signed zeros included."""
    def pairs(values):
        return [[float(z.real), float(z.imag)] for z in values]

    for state in _edge_states() + [ek.random_pure_state([3, 3], rng=6)]:
        doc = to_document(state, name="x", note="y")
        values = _values(state)
        if isinstance(state, ek.PureState):
            field, old = "amplitudes", pairs(values)
        else:
            field, old = "matrix", [pairs(row) for row in values]
        expect = {"dims": list(state.dims), "type": doc["type"], field: old, "name": "x", "note": "y"}
        assert json.dumps(doc) == json.dumps(expect)  # stdlib repr tells -0.0 from 0.0
        first = doc[field][0] if field == "amplitudes" else doc[field][0][0]
        assert type(first) is list and type(first[0]) is float


#: A document in the ``indent=1`` layout that earlier releases wrote with
#: ``json.dump``, where ``1e-05`` is spelled in exponent form.
_INDENT1_DOCUMENT = """{
 "dims": [
  2
 ],
 "type": "mixed",
 "matrix": [
  [
   [
    0.75,
    0.0
   ],
   [
    0.0,
    1e-05
   ]
  ],
  [
   [
    -0.0,
    -1e-05
   ],
   [
    0.25,
    0.0
   ]
  ]
 ]
}
"""


def test_indent1_documents_still_load_bit_exact():
    back = load_state(io.StringIO(_INDENT1_DOCUMENT))
    expect = ek.DensityMatrix([[0.75, 1e-05j], [-1e-05j, 0.25]], (2,))
    assert np.array_equal(_bits(back), _bits(expect))
    assert np.signbit(back.matrix[1, 0].real)
    buf = io.StringIO()
    dump_state(back, buf)
    assert buf.getvalue() == '{"dims":[2],"type":"mixed","matrix":[[[0.75,0.0],[0.0,0.00001]],' \
                             '[[-0.0,-0.00001],[0.25,0.0]]]}\n'


@pytest.fixture
def gc_restored():
    """Leave the cyclic collector as the test found it."""
    enabled = gc.isenabled()
    yield
    (gc.enable if enabled else gc.disable)()


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
def test_load_state_restores_the_collector_state(gc_restored, enabled):
    """``load_state`` pauses the cyclic collector over the read and leaves it
    as it found it: after a good document, after a malformed one that raises,
    and when the caller had it disabled already."""
    good = orjson.dumps(to_document(ek.random_density_matrix([2, 2], rng=3)))
    for text in (good, b'{"dims": [2], "type": "pure", "amplitudes": [[1, 0], [1, 0]]}',
                 b"{not json"):
        (gc.enable if enabled else gc.disable)()
        try:
            load_state(io.BytesIO(text))
        except ValueError:
            assert text != good
        assert gc.isenabled() is enabled


def test_load_state_reads_text_and_binary_handles_alike():
    rho = ek.random_density_matrix([2, 3], rank=2, rng=4)
    text = io.StringIO()
    dump_state(rho, text)
    from_text = load_state(io.StringIO(text.getvalue()))
    from_bytes = load_state(io.BytesIO(text.getvalue().encode()))
    assert np.array_equal(_bits(from_text), _bits(from_bytes))
    assert np.array_equal(_bits(from_bytes), _bits(rho))


def test_cli_analyze_refuses_a_document_that_is_not_utf8(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes('{"dims": [2], "type": "pure", "amplitudes": [[1, 0], [0, 0]], '
                     '"name": "\u00e9t\u00e9"}'.encode("latin-1"))
    assert main(["analyze", str(path)]) == 2
    bad = path.read_bytes().index(b"\xe9")
    assert capsys.readouterr().err == f"entkit: error: document is not valid UTF-8 at byte {bad}\n"


def test_cli_analyze_path_and_stdin_print_the_same_bytes(tmp_path, capsysbinary, monkeypatch):
    path = tmp_path / "rho.json"
    with open(path, "w") as fh:
        dump_state(ek.random_density_matrix([2, 2, 2], rank=3, rng=5), fh)
    tail = ["--which", "ppt,class", "--seed", "1"]
    assert main(["analyze", str(path), *tail]) == 0
    by_path = capsysbinary.readouterr().out
    with open(path, "rb") as fh:
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(fh, encoding="utf-8"))
        assert main(["analyze", "-", *tail]) == 0
    assert by_path and capsysbinary.readouterr().out == by_path


@pytest.mark.parametrize("name, state", [("w", ek.w_state()), ("smolin", ek.smolin_state())])
def test_cli_make_writes_the_dump_state_document(tmp_path, capsys, name, state):
    path = tmp_path / "state.json"
    assert main(["make", name, "--out", str(path)]) == 0
    text = path.read_text()
    assert orjson.loads(text) == to_document(state, name=name)
    buf = io.StringIO()
    dump_state(state, buf, name=name)
    assert text == buf.getvalue()
    capsys.readouterr()
    assert main(["make", name]) == 0
    assert capsys.readouterr().out == text


def test_document_validation():
    with pytest.raises(ValueError):
        from_document({"dims": [2], "type": "pure"})
    with pytest.raises(ValueError):
        from_document({"dims": [2], "type": "weird", "amplitudes": [[1, 0], [0, 0]]})
    with pytest.raises(ValueError):
        from_document({"type": "pure", "amplitudes": [[1, 0], [0, 0]]})
    # invariants revalidated on load
    with pytest.raises(ValueError):
        from_document({"dims": [2], "type": "pure", "amplitudes": [[1, 0], [1, 0]]})
    with pytest.raises(ValueError):
        from_document({"dims": [2.7], "type": "pure", "amplitudes": [[1, 0], [0, 0]]})
    with pytest.raises(ValueError):
        from_document(_NAN_DOCUMENT)
    for doc in _MALFORMED_DOCUMENTS:
        with pytest.raises(ValueError):
            from_document(doc)


def test_ragged_and_over_deep_documents_name_the_field():
    """numpy's own text ("inhomogeneous shape", "maximum number of
    dimension") never reaches the user; the field and its schema do."""
    ragged, deep = _MALFORMED_DOCUMENTS[-2:]
    for doc, field, ndim in ((ragged, "matrix", 2), (deep, "amplitudes", 1)):
        message = (f"{field} must be a {ndim}-dimensional array of [re, im] number pairs, "
                   "got ragged or over-deep nesting")
        with pytest.raises(ValueError) as info:
            from_document(doc)
        assert str(info.value) == message


def test_rows_and_pairs_must_be_lists():
    """A Python caller's tuples or arrays are refused at every level alike,
    rows and pairs, with the message of any other malformed entry."""
    rows = [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]
    wrong = "got another shape, or an entry that is not a list or a number"
    for field, values in (("amplitudes", rows[0]), ("matrix", rows)):
        kind = "pure" if field == "amplitudes" else "mixed"
        assert from_document({"dims": [2], "type": kind, field: values}).dims == (2,)
        for other in (tuple, np.array):
            for bad in (other(values), [other(row) for row in values]):
                with pytest.raises(ValueError, match=wrong):
                    from_document({"dims": [2], "type": kind, field: bad})


#: Every double a document can hold at the edges of the format, integers up
#: to 2**53 and booleans: JSON ``true`` and ``false`` read as 1 and 0.
_LEAVES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308,
                     1.7976931348623157e308]),
    st.integers(-(2**53), 2**53),
    st.booleans(),
)


@st.composite
def _pair_arrays(draw):
    """A 1-D or 2-D array of ``[re, im]`` pairs as nested lists, and its ndim."""
    ndim = draw(st.integers(1, 2))
    shape = draw(st.lists(st.integers(1, 5), min_size=ndim, max_size=ndim))
    pairs = st.lists(_LEAVES, min_size=2, max_size=2)
    if ndim == 1:
        return draw(st.lists(pairs, min_size=shape[0], max_size=shape[0])), 1
    row = st.lists(pairs, min_size=shape[1], max_size=shape[1])
    return draw(st.lists(row, min_size=shape[0], max_size=shape[0])), 2


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(case=_pair_arrays())
def test_complex_array_matches_numpy_bit_for_bit(case):
    """The one-pass conversion gives the bits that numpy's nested-sequence
    conversion gives, signed zeros, subnormals and exact integers included."""
    values, ndim = case
    ours = _complex_array(values, ndim, "field")
    numpy = np.ascontiguousarray(np.array(values), float).view(complex)[..., 0]
    assert ours.dtype == complex and ours.shape == numpy.shape
    assert np.array_equal(ours.view(np.uint64), numpy.view(np.uint64))


_NAN_DOCUMENT = {"dims": [2], "type": "pure", "amplitudes": [[float("nan"), 0], [0, 0]]}
#: Malformed documents, each a ValueError (exit 2), not a TypeError: entries
#: that are not [re, im] number pairs, and Boolean dimensions.
_MALFORMED_DOCUMENTS = [
    {"dims": [2], "type": "pure", "amplitudes": [["a", 0], [0, 0]]},
    {"dims": [2], "type": "pure", "amplitudes": 5},
    {"dims": [2], "type": "mixed", "matrix": [[["a", 0], [0, 0]], [[0, 0], [0.5, 0]]]},
    {"dims": [2], "type": "mixed", "matrix": 5},
    # an integer too large for a float
    {"dims": [2], "type": "pure", "amplitudes": [[10**400, 0], [0, 0]]},
    {"dims": [2], "type": "mixed", "matrix": [[[10**400, 0], [0, 0]], [[0, 0], [0, 0]]]},
    # a None, a string and an object as a pair, no pairs, an empty row, three numbers
    {"dims": [2], "type": "pure", "amplitudes": [None, [0, 0]]},
    {"dims": [2], "type": "pure", "amplitudes": ["ab", [0, 0]]},
    {"dims": [2], "type": "pure", "amplitudes": [{"re": 1, "im": 0}, [0, 0]]},
    {"dims": [2], "type": "pure", "amplitudes": []},
    {"dims": [2], "type": "pure", "amplitudes": [[]]},
    {"dims": [2], "type": "pure", "amplitudes": [[1, 0, 0], [0, 0, 0]]},
    # true is not the dimension 1
    {"dims": [True, 2], "type": "pure", "amplitudes": [[1, 0], [0, 0]]},
    # a ragged matrix row, and amplitudes nested 66 levels deep, past numpy's 64
    {"dims": [2], "type": "mixed", "matrix": [[[1, 0], [0, 0]], [[0, 0]]]},
    {"dims": [2], "type": "pure",
     "amplitudes": functools.reduce(lambda inner, _: [inner], range(64), [[1, 0], [0, 0]])},
]
#: Raw texts that the stdlib ``json`` accepts but RFC 8259 does not.
_NON_STRICT_DOCUMENTS = [
    '{"dims": [2], "type": "pure", "amplitudes": [[Infinity, 0], [0, 0]]}',
    '{"dims": [2], "type": "pure", "amplitudes": [[1, 0], [0, 0]], "name": "\\ud800"}',
]


def _run(tmp_path, *argv) -> tuple[int, str]:
    out = tmp_path / "out.txt"
    code = main([*argv, "--out", str(out)])
    return code, (out.read_text() if out.exists() else "")


def test_cli_make_and_analyze_ghz(tmp_path):
    state_file = tmp_path / "ghz.json"
    code = main(["make", "ghz", "--n", "3", "--d", "2", "--out", str(state_file)])
    assert code == 0
    doc = json.loads(state_file.read_text())
    assert doc["name"] == "ghz"
    assert from_document(doc).isclose(ek.ghz_state(3, 2))

    code, text = _run(tmp_path, "analyze", str(state_file), "--which", "invariants")
    assert code == 0
    report = json.loads(text)
    assert report["invariants"] == ek.lu_invariants(ek.ghz_state(3, 2)).to_json()


def test_cli_make_graph_and_phi_a(tmp_path):
    state_file = tmp_path / "p3.json"
    assert main(["make", "graph", "--edges", "0-1,1-2", "--out", str(state_file)]) == 0
    adj = np.zeros((3, 3), dtype=int)
    adj[0, 1] = adj[1, 0] = adj[1, 2] = adj[2, 1] = 1
    assert from_document(json.loads(state_file.read_text())).isclose(ek.graph_state(adj))

    phi_file = tmp_path / "phi.json"
    assert main(["make", "phi-a", "--a", "1+0i", "--out", str(phi_file)]) == 0
    assert from_document(json.loads(phi_file.read_text())).isclose(ek.phi_a_state(1.0))


def test_cli_analyze_upb_ppt_and_class(tmp_path):
    upb_file = tmp_path / "upb.json"
    assert main(["make", "upb", "--out", str(upb_file)]) == 0
    code, text = _run(tmp_path, "analyze", str(upb_file), "--which", "ppt,class")
    assert code == 0
    report = json.loads(text)
    assert all(entry["ppt"] for entry in report["ppt"].values())
    assert report["class"] == "inapplicable"

    zero_file = tmp_path / "zero.json"
    with open(zero_file, "w") as fh:
        json.dump(to_document(ek.basis_state([2, 2, 2], [0, 0, 0])), fh)
    code, text = _run(tmp_path, "analyze", str(zero_file), "--which", "class")
    report = json.loads(text)
    assert report["class"]["producibility_m"] == 1
    assert report["class"]["genuinely_multipartite"] is False


def test_cli_analyze_inapplicable_section(tmp_path):
    bell_file = tmp_path / "bell.json"
    assert main(["make", "bell", "--d", "2", "--out", str(bell_file)]) == 0
    code, text = _run(tmp_path, "analyze", str(bell_file), "--which", "invariants,schmidt")
    assert code == 0
    report = json.loads(text)
    assert report["invariants"] == "inapplicable"
    assert report["schmidt"]["rank"] == 2


_ALL_SECTIONS = ("invariants", "tangles", "class", "schmidt", "ppt", "polytope",
                 "geometric-measure")


def _expected_sections(state, restarts: int, seed: int) -> dict:
    """Every ``analyze`` section from the library: "inapplicable" for
    ``invariants``, ``tangles`` and ``polytope`` unless pure 3-qubit, for
    ``class`` and ``geometric-measure`` unless pure, for ``schmidt`` unless
    pure with two or more parties, and for ``ppt`` on one party."""
    from entkit.schmidt import RANK_TOL
    from entkit.states import shannon_entropy

    pure = isinstance(state, ek.PureState)
    n = state.n_parties
    out = dict.fromkeys(_ALL_SECTIONS, "inapplicable")
    if pure and state.dims == (2, 2, 2):
        out["invariants"] = ek.lu_invariants(state).to_json()
        out["tangles"] = dict(zip(("tau1", "tau2", "tau3"), ek.tangles(state)))
        out["polytope"] = list(ek.polytope_coords(state))
    if pure:
        rep = ek.classify_pure(state)
        out["class"] = {
            "finest_product_partition": rep.finest_product_partition.to_json(),
            "producibility_m": rep.producibility_m,
            "genuinely_multipartite": rep.genuinely_multipartite,
        }
        if state.dims == (2, 2, 2):
            out["class"]["slocc_class"] = ek.slocc_class_3qubit(state).value
        res = ek.geometric_measure(state, restarts=restarts, seed=seed)
        out["geometric-measure"] = {
            "value": res.value, "restarts_used": res.restarts_used, "converged": res.converged,
        }
    if pure and n >= 2:
        def entry(part):
            lam = ek.schmidt_vector(state, part)
            return {"lambda": list(lam), "entropy": shannon_entropy(lam),
                    "rank": int((lam > RANK_TOL).sum())}

        cuts = [ek.Partition(((k,), tuple(i for i in range(n) if i != k))) for k in range(n)]
        out["schmidt"] = entry(None) if n == 2 else {str(part): entry(part) for part in cuts}
    if n >= 2:
        out["ppt"] = {}
        for part in ek.all_bipartitions(n):
            flag, mineig = ek.ppt_check(state, part)
            out["ppt"][str(part)] = {"ppt": flag, "min_eigenvalue": mineig}
    return json.loads(json.dumps(out))


def test_cli_analyze_section_table(tmp_path):
    """Each section of ``analyze`` is the library call where it applies and
    "inapplicable" exactly where it does not."""
    states = [
        ek.random_pure_state([2, 2, 2], rng=1),
        ek.random_pure_state([2, 3], rng=2),
        ek.random_pure_state([2, 2, 2, 2], rng=3),
        ek.random_pure_state([3], rng=4),
        ek.random_density_matrix([2, 2, 2], rng=5),
        ek.random_density_matrix([2, 2], rng=6),
    ]
    path = tmp_path / "state.json"
    for state in states:
        path.write_text(json.dumps(to_document(state)))
        code, text = _run(tmp_path, "analyze", str(path), "--which", ",".join(_ALL_SECTIONS),
                          "--restarts", "3", "--seed", "5")
        assert code == 0
        report = json.loads(text)
        assert report == {"dims": list(state.dims), **_expected_sections(state, 3, 5)}


def test_cli_analyze_no_convergence_keeps_the_report(tmp_path, monkeypatch):
    """An unconverged geometric measure exits 3 after the whole report is written."""
    w_file = tmp_path / "w.json"
    assert main(["make", "w", "--out", str(w_file)]) == 0
    result = ek.OptimizationResult(value=0.5, argument=None, restarts_used=2, converged=False,
                                   evaluations=4, restart_values=(0.5, 0.6),
                                   restart_iterations=(2, 2), converged_restarts=0)
    monkeypatch.setattr("entkit.cli.geometric_measure", lambda *args, **kwargs: result)
    code, text = _run(tmp_path, "analyze", str(w_file), "--which", "class,geometric-measure,ppt")
    assert code == 3
    report = json.loads(text)
    assert list(report) == ["dims", "class", "geometric-measure", "ppt"]
    assert report["geometric-measure"] == {"value": 0.5, "restarts_used": 2, "converged": False}
    assert report["ppt"] == _expected_sections(ek.w_state(), 1, 0)["ppt"]


def test_cli_exit_codes(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["analyze", str(bad), "--which", "class"]) == 2
    missing = tmp_path / "missing.json"
    assert main(["analyze", str(missing)]) == 2
    with pytest.raises(SystemExit) as exc:
        main(["make", "nonsense"])
    assert exc.value.code == 2
    good = tmp_path / "ghz.json"
    assert main(["make", "ghz", "--out", str(good)]) == 0
    assert main(["analyze", str(good), "--which", "bogus"]) == 2
    # a cut of three blocks, and one over two of the state's three parties
    for cut in ("0|1|2", "0|1"):
        assert main(["analyze", str(good), "--which", "schmidt", "--bipartition", cut]) == 2
        pair = ["--source", str(good), "--target", str(good)]
        assert main(["convert-check", *pair, "--bipartition", cut]) == 2
    # a tolerance the geometric measure cannot stop on is refused at once,
    # not run to the sweep cap and reported as unconverged (exit 3)
    for tol in ("nan", "inf", "-1"):
        assert main(["analyze", str(good), "--which", "geometric-measure", "--tol", tol]) == 2
    for state in ("graph", "acin"):              # --edges, --r required
        with pytest.raises(SystemExit) as exc:
            main(["make", state])
        assert exc.value.code == 2
    assert main(["make", "acin", "--r", "1,1,0,0,0"]) == 2
    assert main(["make", "ghz", "--lam", "0.9,0.9"]) == 2
    assert main(["make", "graph", "--edges", "0-5", "--vertices", "3"]) == 2
    # sizes far over the dense cap are refused before anything is allocated
    assert main(["make", "ghz", "--n", "40"]) == 2
    assert main(["make", "bell", "--d", "100000"]) == 2
    assert main(["make", "graph", "--edges", "0-1", "--vertices", "1000000"]) == 2
    nan_doc = tmp_path / "nan.json"
    nan_doc.write_text(json.dumps(_NAN_DOCUMENT))    # json writes a bare NaN
    assert main(["analyze", str(nan_doc)]) == 2
    # documents are strict JSON: no Infinity literal, no lone surrogate
    for k, text in enumerate(_NON_STRICT_DOCUMENTS):
        path = tmp_path / f"non-strict{k}.json"
        path.write_text(text)
        assert main(["analyze", str(path)]) == 2
    for k, doc in enumerate(_MALFORMED_DOCUMENTS):
        path = tmp_path / f"malformed{k}.json"
        path.write_text(json.dumps(doc))
        assert main(["analyze", str(path)]) == 2
    # a matrix that is not positive, not Hermitian or not of trace 1
    for k, (matrix, _) in enumerate(UNPHYSICAL_MATRICES):
        path = tmp_path / f"unphysical{k}.json"
        path.write_text(json.dumps(mixed_document(matrix)))
        assert main(["analyze", str(path)]) == 2
    # a 3 x 3 matrix on one qubit
    mismatched = tmp_path / "mismatched.json"
    mismatched.write_text(json.dumps(mixed_document(np.eye(3) / 3)))
    assert main(["analyze", str(mismatched)]) == 2
    # non-finite bounds, and a step whose point count is over the cap: the
    # count is checked before any point is built
    for grid in ("0:inf:0.1", "nan:1:0.1", "0,inf", "0:1:1e-12"):
        assert main(["sweep", "--family", "ghz-noise", "--grid", grid]) == 2
    # bell_state's dense cap bounds the teleportation channel at d = 64
    for d in ("65", "1000000"):
        assert main(["teleport-demo", "--d", d]) == 2
    # ame-table spans are counted before any row is built
    assert main(["ame-table", "--n", "2:1000000000"]) == 2
    assert main(["ame-table", "--n", "2:3", "--d", "2:" + "9" * 30]) == 2


def test_cli_errors_print_plain_numbers(tmp_path, capsys):
    """Error messages show Python numbers, not numpy 2 reprs such as
    ``np.float64(1.8)`` or ``np.complex128(2+0j)``."""
    assert main(["make", "ghz", "--lam", "0.9,0.9"]) == 2
    assert capsys.readouterr().err == "entkit: error: lambda sums to 1.8, not 1 within 1e-10\n"
    doc = tmp_path / "trace2.json"
    doc.write_text(json.dumps({"dims": [2], "type": "mixed",
                               "matrix": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}))
    assert main(["analyze", str(doc)]) == 2
    assert capsys.readouterr().err == "entkit: error: trace 2.0 is not 1 within 1e-10\n"
    # a vertex count below 1 is refused by name, not shown as the range 0..-6
    for vertices in ("-5", "0"):
        assert main(["make", "graph", "--edges", "0-1", "--vertices", vertices]) == 2
        err = capsys.readouterr().err
        assert err == f"entkit: error: --vertices must be >= 1, got {vertices}\n"
    # a malformed edge is named with the form it should have
    for edge in ("0-1-2", "0-x"):
        assert main(["make", "graph", "--edges", f"1-2,{edge}"]) == 2
        err = capsys.readouterr().err
        assert err == f"entkit: error: edge '{edge}' is not of the form a-b, two vertex numbers\n"


def test_cli_builds_its_parser_once(tmp_path, monkeypatch, capsys):
    """``main`` builds the ``entkit`` parser on its first call only; a later
    call parses, refuses usage errors and prints the version alike."""
    built = []
    init = argparse.ArgumentParser.__init__

    def spy(self, *args, **kwargs):
        init(self, *args, **kwargs)
        if self.prog == "entkit":
            built.append(self)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
    cli._parser.cache_clear()
    try:
        out = tmp_path / "ghz.json"
        assert main(["make", "ghz", "--out", str(out)]) == 0
        assert main(["analyze", str(out), "--which", "ppt", "--out", os.devnull]) == 0
        assert len(built) == 1
        for argv, code in ((["make", "nonsense"], 2), (["--version"], 0)):
            seen = []
            for _ in range(2):
                with pytest.raises(SystemExit) as exc:
                    main(argv)
                seen.append((exc.value.code, capsys.readouterr()))
            assert seen[0] == seen[1] and seen[0][0] == code
            assert (seen[0][1].err if code else seen[0][1].out).strip()
        assert seen[0][1].out == f"entkit {ek.__version__}\n"
        assert len(built) == 1
        assert cli.build_parser() is not cli.build_parser()
    finally:
        cli._parser.cache_clear()


def _exit_code(argv) -> int:
    try:
        return main(argv)
    except SystemExit as exc:  # argparse rejected the arguments
        return exc.code


def _csv(values):
    return st.lists(values, max_size=6).map(lambda xs: ",".join(map(str, xs)))


#: command line -> the options its handler reads besides --out.  The parser
#: once gave every subcommand --seed, --tol, --out and --format, and every
#: make state all eight make options, read or not.
_READS = {
    "make bell": ("--d",),
    "make ghz": ("--n", "--d", "--lam"),
    "make w": (),
    "make graph --edges 0-1": ("--edges", "--vertices"),
    "make smolin": (),
    "make upb": (),
    "make psi25": (),
    "make phi-a": ("--a",),
    "make acin --r 1,0,0,0,0": ("--r", "--theta"),
    "analyze doc.json": ("--seed", "--tol", "--which", "--bipartition", "--restarts"),
    "convert-check --source a.json --target b.json": (
        "--source", "--target", "--bipartition", "--catalyst-dim", "--catalyst-grid"),
    "sweep --family phi-a --grid 1": ("--format", "--family", "--grid"),
    "teleport-demo": ("--seed", "--d"),
    "unlock-demo": ("--pair",),
    "ame-table": ("--format", "--n", "--d"),
}
_MAKE_READS = {cmd.split()[1]: reads for cmd, reads in _READS.items() if cmd.startswith("make")}
_SHARED = ("--out", "--seed", "--tol", "--format")
_MAKE_OPTIONS = ("--d", "--n", "--lam", "--edges", "--vertices", "--a", "--r", "--theta")
#: (command line, flag the parser once took there, whether the handler reads it)
_FLAG_CASES = [
    (cmd, flag, flag in ("--out", *reads))
    for cmd, reads in _READS.items()
    for flag in sorted({*_SHARED, *(_MAKE_OPTIONS if cmd.startswith("make") else reads)})
]


def _leaf_options(parser, words=()) -> dict:
    """Command words -> the options of the parser that runs them; argparse
    keeps the sub-parsers in an action of its own."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        return {words: {f for a in parser._actions for f in a.option_strings} - {"-h", "--help"}}
    return {key: flags for name, sub in subs[0].choices.items()
            for key, flags in _leaf_options(sub, (*words, name)).items()}


def test_each_parser_takes_only_the_options_read():
    """``make`` went from 108 (state, option) pairs to 18, and the other six
    subcommands from 38 options to 25."""
    leaves = _leaf_options(cli.build_parser())
    assert leaves == {tuple(cmd.split()[:2 if cmd.startswith("make") else 1]): {"--out", *reads}
                      for cmd, reads in _READS.items()}
    make = sum(len(flags) for words, flags in leaves.items() if words[0] == "make")
    assert (make, sum(map(len, leaves.values())) - make) == (18, 25)


@pytest.mark.parametrize("command, flag, read", _FLAG_CASES)
def test_each_option_is_read_or_refused(command, flag, read, capsys):
    """A subcommand, or a ``make`` state, parses the options its handler reads;
    any other flag is a usage error (exit 2, no traceback)."""
    value = {"--format": "json", "--family": "phi-a"}.get(flag, "2")
    argv = [*command.split(), flag, value]
    if read:
        assert cli.build_parser().parse_args(argv).func is not None
        return
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"error: unrecognized arguments: {flag} {value}\n" in err and "Traceback" not in err


def test_make_options_follow_the_state():
    """Options come after the state: ``make --n 3 ghz`` is a usage error."""
    with pytest.raises(SystemExit) as exc:
        main(["make", "--n", "3", "ghz"])
    assert exc.value.code == 2


@pytest.mark.parametrize("flag, value, message", [
    ("--seed", "-1", "seed must be None, an integer >= 0 or a Generator, got -1"),
    ("--tol", "nan", "tol must be finite and >= 0, got nan"),
    ("--tol", "-1e-3", "tol must be finite and >= 0, got -0.001"),
    ("--restarts", "-5", "restarts must be in 1..1000, got -5"),
    ("--restarts", "1001", "restarts must be in 1..1000, got 1001"),
])
@pytest.mark.parametrize("which", ["ppt", "class,schmidt", "invariants", "geometric-measure"])
def test_cli_analyze_checks_the_solver_options_whatever_it_runs(
        tmp_path, capsys, flag, value, message, which):
    """``--seed``, ``--tol`` and ``--restarts`` are refused up front, with the
    message the geometric measure gives, whichever sections ``--which`` asks
    for, even those that do not read them."""
    ghz = tmp_path / "ghz.json"
    ghz.write_text(json.dumps(to_document(ek.ghz_state(3, 2))))
    assert main(["analyze", str(ghz), "--which", which, f"{flag}={value}"]) == 2
    assert capsys.readouterr() == ("", f"entkit: error: {message}\n")


def test_cli_teleport_demo_names_a_bad_seed(capsys):
    """``teleport-demo`` seeds as the library does, so a seed numpy refuses is
    named in the message."""
    assert main(["teleport-demo", "--seed", "-1"]) == 2
    err = capsys.readouterr().err
    assert err == "entkit: error: seed must be None, an integer >= 0 or a Generator, got -1\n"


def test_cli_options_are_not_abbreviated(tmp_path):
    """No parser takes a prefix of an option for the option: ``--r`` is not
    ``--restarts`` to ``analyze``, nor ``--the`` ``--theta`` to ``make acin``,
    and ``--ver`` is not ``--version``.  The full names parse."""
    ghz = tmp_path / "ghz.json"
    ghz.write_text(json.dumps(to_document(ek.ghz_state(3, 2))))
    for argv in (["analyze", str(ghz), "--r", "3", "--which", "geometric-measure"],
                 ["make", "acin", "--r", "1,0,0,0,0", "--the", "1"],
                 ["--ver"]):
        assert _exit_code(argv) == 2
    parser = cli.build_parser()
    args = parser.parse_args(["analyze", str(ghz), "--restarts", "3",
                              "--which", "geometric-measure"])
    assert (args.restarts, args.which) == (3, "geometric-measure")
    args = parser.parse_args(["make", "acin", "--r", "1,0,0,0,0", "--theta", "1"])
    assert (args.r, args.theta) == ("1,0,0,0,0", 1.0)


_MAKE_INTS = st.one_of(st.none(), st.integers(-10, 20), st.integers(-(10**15), 10**15))
_MAKE_TEXTS = {
    "--lam": _csv(st.floats()),
    "--r": _csv(st.floats()),
    "--a": st.complex_numbers().map(str),
    "--edges": _csv(st.tuples(st.integers(-2, 10**12), st.integers(0, 14)).map(
        lambda e: f"{e[0]}-{e[1]}")),
    "--theta": st.floats().map(str),
}


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(
    name=st.sampled_from(
        ["bell", "ghz", "w", "graph", "smolin", "upb", "psi25", "phi-a", "acin"]
    ),
    ints=st.fixed_dictionaries({flag: _MAKE_INTS for flag in ("--n", "--d", "--vertices")}),
    texts=st.fixed_dictionaries(
        {flag: st.one_of(st.none(), st.text(max_size=20), values)
         for flag, values in _MAKE_TEXTS.items()}
    ),
)
def test_cli_make_exit_code_contract(name, ints, texts):
    """``make`` exits with 0 or 2 for any values of its state's options, and
    never raises."""
    argv = ["make", name, "--out", os.devnull]
    argv += [f"{flag}={value}" for flag, value in {**ints, **texts}.items()
             if value is not None and flag in _MAKE_READS[name]]
    assert _exit_code(argv) in (0, 2)


def test_cli_restarts_cap(tmp_path):
    """``--restarts`` takes 1 to 1000; other counts exit 2 before any restart."""
    ghz = tmp_path / "ghz.json"
    assert main(["make", "ghz", "--out", str(ghz)]) == 0
    for k in ("0", "-3", "1001", "1000000000"):
        argv = ["analyze", str(ghz), "--which", "geometric-measure", f"--restarts={k}"]
        assert main(argv) == 2
    code, text = _run(tmp_path, "analyze", str(ghz), "--which", "geometric-measure",
                      "--restarts", "1")
    assert code == 0
    assert json.loads(text)["geometric-measure"]["restarts_used"] == 1


_JUNK = st.text(max_size=8)


def _documents():
    """Small state documents: seeded valid ones, the same with one field
    replaced by junk, and free-form objects."""
    junk = st.recursive(
        st.none() | st.booleans() | st.integers(-3, 9) | st.floats() | _JUNK
        | st.just(10**400),
        lambda inner: st.lists(inner, max_size=4),
        max_leaves=12,
    )
    dims = st.sampled_from([[1], [2], [3], [2, 2], [2, 3], [2, 2, 2]])

    def valid(dims, mixed, seed):
        state = (ek.random_density_matrix(dims, rng=seed) if mixed
                 else ek.random_pure_state(dims, rng=seed))
        return to_document(state)

    docs = st.builds(valid, dims, st.booleans(), st.integers(0, 99))
    fields = st.sampled_from(["dims", "type", "amplitudes", "matrix"])
    broken = st.tuples(docs, fields, junk).map(lambda t: {**t[0], t[1]: t[2]})
    return st.one_of(docs, st.one_of(broken, st.dictionaries(fields, junk), junk))


def _flags(**values):
    """``--flag=value`` arguments, each flag absent or drawn from its values."""
    return st.fixed_dictionaries(
        {f"--{flag}": st.one_of(st.none(), v) for flag, v in values.items()}
    ).map(lambda d: [f"{k}={v}" for k, v in d.items() if v is not None])


def _acin_point(r, theta):
    r = np.array(r) / np.linalg.norm(r)
    return ",".join(map(str, [*r, *theta]))


_NUMBER = st.one_of(st.integers(-5, 5), st.floats(-2, 2), st.sampled_from(
    ["nan", "inf", "-inf", "1e308", "1e-320", "0x10"]))
_GRIDS = {
    "ghz-noise": st.one_of(
        st.tuples(st.floats(0, 1), st.floats(0, 1), st.sampled_from(
            [0.05, 0.25, 1, 0, -0.1, 1e-12, "nan", "inf"])),
        st.tuples(_NUMBER, _NUMBER, _NUMBER),
    ).map(lambda t: ":".join(map(str, t))) | _csv(_NUMBER) | _JUNK,
    "phi-a": _csv(st.one_of(_NUMBER, st.complex_numbers(max_magnitude=1e300))) | _JUNK,
    "acin-grid": st.lists(st.one_of(
        st.builds(_acin_point, st.lists(st.floats(1e-3, 1), min_size=5, max_size=5),
                  st.lists(_NUMBER, max_size=1)),
        _csv(_NUMBER),
    ), max_size=3).map(";".join) | _JUNK,
}
_SPANS = st.one_of(
    st.integers(-3, 40), st.integers(10**4, 10**15),
    st.tuples(st.integers(-3, 40), st.integers(-3, 60)).map(lambda t: f"{t[0]}:{t[1]}"),
    st.tuples(st.integers(-3, 9), st.integers(10**4, 10**30)).map(lambda t: f"{t[0]}:{t[1]}"),
    _JUNK,
)
_SECTIONS = ["invariants", "tangles", "class", "schmidt", "ppt", "polytope",
             "geometric-measure", "bogus"]
_CONVERT_SOURCES = _documents() | st.builds(
    lambda seed: to_document(ek.random_pure_state([2, 2], rng=seed)), st.integers(0, 99))
# grids of at most 20 points, or past the cap: dimension 4 at grid 200 takes seconds
_CATALYST_GRIDS = st.integers(-2, 20) | st.sampled_from([201, 10**9]) | _JUNK
_COMMANDS = st.one_of(
    st.tuples(st.just("analyze"), _documents(), _flags(
        which=st.lists(st.sampled_from(_SECTIONS), min_size=1, max_size=3).map(",".join)
        | _JUNK,
        restarts=st.one_of(st.integers(-2, 4), st.integers(1, 4), st.integers(1001, 10**12),
                           _JUNK),
        tol=st.one_of(st.floats(1e-12, 1e-2), _NUMBER, _JUNK),
        bipartition=st.sampled_from(["0|1", "0|1,2", "1|0,2", "0|0", "|", "0,1"]) | _JUNK,
    )),
    *(st.tuples(st.just("sweep"), st.none(), _flags(grid=grid)).map(
        lambda t, family=family: (t[0], t[1], [f"--family={family}", *t[2]]))
      for family, grid in _GRIDS.items()),
    # d = 64 runs for seconds, so only sizes up to 8 and past the cap
    st.tuples(st.just("teleport-demo"), st.none(), _flags(
        d=st.one_of(st.integers(-2, 8), st.integers(65, 10**12), _JUNK))),
    st.tuples(st.just("ame-table"), st.none(), _flags(
        n=_SPANS, d=_SPANS, format=st.sampled_from(["json", "csv"]) | _JUNK)),
    # the target is a Bell pair, so a (2, 2) source that is not one runs the search
    st.tuples(st.just("convert-check"), _CONVERT_SOURCES, st.tuples(_flags(**{
        "catalyst-dim": st.integers(-3, 6) | _JUNK,
        "bipartition": st.sampled_from(["0|1", "0|1,2", "1|0,2", "0|0", "|", "0,1"]) | _JUNK,
    }), _CATALYST_GRIDS).map(lambda t: [*t[0], f"--catalyst-grid={t[1]}"])),
    st.tuples(st.just("unlock-demo"), st.none(), _flags(
        pair=st.sampled_from(["AB", "dc", "AE", "EA", "A", "ABC"]) | _JUNK)),
)


@pytest.fixture(scope="module")
def document_path(tmp_path_factory):
    return tmp_path_factory.mktemp("contract") / "doc.json"


@pytest.fixture(scope="module")
def bell_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("contract") / "bell.json"
    path.write_text(json.dumps(to_document(ek.bell_state(2))))
    return path


_HAAR_2X2 = to_document(ek.random_pure_state([2, 2], rng=0))


@settings(derandomize=True, database=None, max_examples=600, deadline=None)
@given(command=_COMMANDS)
# numpy warnings (errors under the test configuration), and an OverflowError
# from a range that ends before it starts
@example(command=("sweep", None, ["--family=phi-a", "--grid=nan"]))
@example(command=("sweep", None, ["--family=phi-a", "--grid=1e308"]))
@example(command=("sweep", None, ["--family=acin-grid", "--grid=1,0,0,0,0,inf"]))
@example(command=("sweep", None, ["--family=ghz-noise", "--grid=0:-1:1e-320"]))
@example(command=("sweep", None, ["--family=acin-grid", "--grid=0,0,0,0,1e308"]))
# a RecursionError, and a division by zero (a numpy warning)
@example(command=("convert-check", _HAAR_2X2, ["--catalyst-dim=-1", "--catalyst-grid=5"]))
@example(command=("convert-check", _HAAR_2X2, ["--catalyst-dim=2", "--catalyst-grid=0"]))
def test_cli_exit_code_contract(document_path, bell_path, command):
    """``analyze``, ``sweep``, ``teleport-demo``, ``ame-table``,
    ``convert-check`` and ``unlock-demo`` exit with 0, 2 or 3 for any
    arguments and documents, and never raise."""
    name, doc, flags = command
    argv = [name, *flags, "--out", os.devnull]
    if doc is not None:
        document_path.write_text(json.dumps(doc))
        argv[1:1] = ([str(document_path)] if name == "analyze"
                     else ["--source", str(document_path), "--target", str(bell_path)])
    assert _exit_code(argv) in (0, 2, 3)


def test_cli_ppt_sweep_cap(tmp_path, monkeypatch):
    ghz7 = tmp_path / "ghz7.json"
    assert main(["make", "ghz", "--n", "7", "--out", str(ghz7)]) == 0

    def no_eigensolve(*args, **kwargs):
        raise AssertionError("eigensolve before the PPT sweep cap")

    monkeypatch.setattr(np.linalg, "eigvalsh", no_eigensolve)
    assert main(["analyze", str(ghz7), "--which", "ppt"]) == 2


def test_cli_convert_check_and_catalysis(tmp_path):
    bell_file = tmp_path / "bell.json"
    prod_file = tmp_path / "prod.json"
    main(["make", "bell", "--out", str(bell_file)])
    with open(prod_file, "w") as fh:
        json.dump(to_document(ek.basis_state([2, 2], [0, 0])), fh)
    code, text = _run(
        tmp_path, "convert-check", "--source", str(bell_file), "--target", str(prod_file)
    )
    assert code == 0
    verdict = json.loads(text)
    assert verdict["convertible"] is True
    assert verdict["reverse_convertible"] is False

    def ghz_like(lam, path):
        d = len(lam)
        amp = np.zeros(d * d, dtype=complex)
        for i, x in enumerate(lam):
            amp[i * d + i] = np.sqrt(x)
        with open(path, "w") as fh:
            json.dump(to_document(ek.PureState.normalized(amp, (d, d))), fh)

    src, tgt = tmp_path / "s.json", tmp_path / "t.json"
    ghz_like([0.4, 0.4, 0.1, 0.1], src)
    ghz_like([0.5, 0.25, 0.25, 0.0], tgt)
    code, text = _run(
        tmp_path, "convert-check", "--source", str(src), "--target", str(tgt),
        "--catalyst-dim", "2",
    )
    verdict = json.loads(text)
    assert verdict["convertible"] is False
    assert verdict["reverse_convertible"] is False
    assert np.abs(np.array(verdict["catalyst"]) - [0.62, 0.38]).max() < 1e-12
    # a search takes a catalyst dimension of 1 to 4 and a grid resolution of 1 to 200
    search = ["convert-check", "--source", str(src), "--target", str(tgt)]
    for dim, grid in (("-1", "100"), ("0", "100"), ("5", "100"),
                      ("2", "0"), ("2", "-1"), ("2", "201")):
        assert main([*search, "--catalyst-dim", dim, "--catalyst-grid", grid]) == 2
    # no search when the conversion needs no catalyst
    code, text = _run(tmp_path, "convert-check", "--source", str(bell_file),
                      "--target", str(prod_file), "--catalyst-dim", "0")
    assert code == 0 and "catalyst" not in json.loads(text)


def test_cli_sweeps(tmp_path):
    code, text = _run(tmp_path, "sweep", "--family", "ghz-noise", "--grid", "0:1:0.1")
    assert code == 0
    lines = [ln for ln in text.strip().splitlines() if ln]
    assert len(lines) == 12  # header + 11 rows

    code, text = _run(tmp_path, "sweep", "--family", "phi-a", "--grid", "0,0.5,1")
    lines = [ln for ln in text.strip().splitlines() if ln]
    assert len(lines) == 4

    s = 1 / np.sqrt(2)
    code, text = _run(
        tmp_path, "sweep", "--family", "acin-grid", "--grid", f"{s},0,0,0,{s},0",
        "--format", "json",
    )
    rows = json.loads(text)
    assert rows[0]["tau3"] == pytest.approx(1.0, abs=1e-9)
    assert main(["sweep", "--family", "phi-a", "--grid", ""]) == 2


def test_cli_demos_and_ame_table(tmp_path):
    code, text = _run(tmp_path, "teleport-demo", "--d", "2", "--seed", "5")
    assert code == 0
    demo = json.loads(text)
    assert len(demo["branches"]) == 4
    for br in demo["branches"]:
        assert br["probability"] == pytest.approx(0.25, abs=1e-9)
        assert br["fidelity"] == pytest.approx(1.0, abs=1e-9)

    code, text = _run(tmp_path, "unlock-demo", "--pair", "AC")
    branches = json.loads(text)["branches"]
    assert all(
        br["remaining_pair_tangle"] == pytest.approx(1.0, abs=1e-9) for br in branches
    )
    with pytest.raises(ValueError, match="two distinct parties among A, B, C, D"):
        ek.unlock_smolin("AE")

    code, text = _run(tmp_path, "ame-table", "--n", "4", "--d", "2:7", "--format", "json")
    rows = json.loads(text)
    verdicts = {(r["n"], r["d"]): r["verdict"] for r in rows}
    assert verdicts[(4, 2)] == "NotExists"
    assert verdicts[(4, 6)] == "Exists"
    assert all(r["rule"] for r in rows)


def test_cli_roundtrip_bit_identical(tmp_path):
    state_file = tmp_path / "w.json"
    main(["make", "w", "--out", str(state_file)])
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    args = ["analyze", str(state_file), "--which", "invariants,tangles,polytope",
            "--seed", "7"]
    assert main([*args, "--out", str(out1)]) == 0
    assert main([*args, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_readme_command_lines_run(tmp_path, monkeypatch):
    """Every ``entkit ...`` line of the README exits 0, run in a directory
    that holds the ``a.json`` and ``b.json`` that ``convert-check`` reads."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    lines = [shlex.split(line)[1:] for line in readme.splitlines() if line.startswith("entkit ")]
    assert len(lines) >= 11
    monkeypatch.chdir(tmp_path)
    assert main(["make", "bell", "--out", "a.json"]) == 0
    assert main(["make", "ghz", "--n", "2", "--lam", "0.8,0.2", "--out", "b.json"]) == 0
    for argv in lines:
        assert main(argv) == 0, argv
