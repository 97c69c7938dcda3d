import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import entkit as ek
from entkit.cli import main
from entkit.serialize import from_document, to_document


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
    from entkit.serialize import dump_state, load_state

    path = tmp_path / "state.json"
    psi = ek.psi25_state()
    with open(path, "w") as fh:
        dump_state(psi, fh, name="five-qubit")
    with open(path) as fh:
        back = load_state(fh)
    assert back.isclose(psi, atol=0)
    assert json.loads(path.read_text())["name"] == "five-qubit"


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


_NAN_DOCUMENT = {"dims": [2], "type": "pure", "amplitudes": [[float("nan"), 0], [0, 0]]}
#: Entries that are not [re, im] number pairs: ValueError (exit 2), not TypeError.
_MALFORMED_DOCUMENTS = [
    {"dims": [2], "type": "pure", "amplitudes": [["a", 0], [0, 0]]},
    {"dims": [2], "type": "pure", "amplitudes": 5},
    {"dims": [2], "type": "mixed", "matrix": [[["a", 0], [0, 0]], [[0, 0], [0.5, 0]]]},
    {"dims": [2], "type": "mixed", "matrix": 5},
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
    assert main(["make", "graph"]) == 2          # --edges required
    assert main(["make", "acin"]) == 2           # --r required
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
    for k, doc in enumerate(_MALFORMED_DOCUMENTS):
        path = tmp_path / f"malformed{k}.json"
        path.write_text(json.dumps(doc))
        assert main(["analyze", str(path)]) == 2
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


def _exit_code(argv) -> int:
    try:
        return main(argv)
    except SystemExit as exc:  # argparse rejected the arguments
        return exc.code


def _csv(values):
    return st.lists(values, max_size=6).map(lambda xs: ",".join(map(str, xs)))


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
    """``make`` exits with 0 or 2 for any arguments, and never raises."""
    argv = ["make", name, "--out", os.devnull]
    argv += [f"{flag}={value}" for flag, value in {**ints, **texts}.items() if value is not None]
    assert _exit_code(argv) in (0, 2)


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
