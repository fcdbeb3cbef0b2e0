import contextlib
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from slreach.cli import main
from slreach.heaps import Heap, MemoryState, load_state, save_state


@pytest.fixture()
def state_file(tmp_path):
    path = tmp_path / "state.json"
    save_state(MemoryState(2, {1: 0, 2: 3}, Heap({0: 1, 1: 3})), str(path))
    return str(path)


def test_check_cycle_discrimination(tmp_path, capsys):
    path = tmp_path / "cycle.json"
    save_state(
        MemoryState(3, {1: 10, 2: 12, 3: 14},
                    Heap({10: 11, 11: 12, 12: 13, 13: 14, 14: 15, 15: 10})),
        str(path),
    )
    f = "true * (reach+(x1,x2) /\\ reach+(x2,x3) /\\ not reach+(x3,x1))"
    assert main(["check", "-f", f, "-m", str(path)]) == 0
    capsys.readouterr()


def test_check_true(state_file, capsys):
    code = main(["check", "-f", "ls(x1,x2)", "-m", state_file])
    out = capsys.readouterr().out
    assert code == 0
    assert "result: true" in out and "exact: yes" in out


def test_check_false_and_json(state_file, capsys):
    code = main(["check", "-f", "emp", "-m", state_file, "--json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 1
    assert out == {"result": False, "exact": True}


def test_check_wand_flags(state_file, capsys):
    code = main(["check", "-f", "alloc(x1)", "-m", state_file,
                 "--wand-bound", "3", "--fresh", "3"])
    assert code == 0


def test_sat_model_recheck(tmp_path, capsys):
    model = str(tmp_path / "model.json")
    code = main(["sat", "-f", "reach+(x1,x1) /\\ size<=1", "--model-out", model])
    out = capsys.readouterr().out
    assert code == 0 and "SAT" in out
    code = main(["check", "-f", "reach+(x1,x1) /\\ size<=1", "-m", model])
    capsys.readouterr()
    assert code == 0


def test_sat_unsat(capsys):
    code = main(["sat", "-f", "emp /\\ not emp"])
    out = capsys.readouterr().out
    assert code == 1 and "UNSAT" in out


def test_sat_fragment_flag(capsys):
    code = main(["sat", "-f", "x1 |-> x2", "--fragment", "boolshf"])
    assert code == 0
    capsys.readouterr()


def test_entail(capsys):
    assert main(["entail", "-f", "ls(x1,x2)", "-g", "reach(x1,x2)"]) == 0
    capsys.readouterr()
    code = main(["entail", "-f", "reach(x1,x2)", "-g", "ls(x1,x2)"])
    out = capsys.readouterr().out
    assert code == 1
    assert "counter-model" in out


def test_translate(capsys):
    code = main(["translate", "--fo", "forall x1 . not (x1 ~> x1)"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("T_SAT: ")
    assert "T_VAL: " in out
    # both lines reparse in the propositional grammar
    from slreach.parser import parse

    for line in out.strip().splitlines():
        parse(line.split(": ", 1)[1])


def test_abstract(state_file, capsys):
    code = main(["abstract", "-m", state_file, "--alpha", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "support graph (q=2)" in out
    assert "profile (alpha=2):" in out
    assert "alloc(x1)" in out


def test_equiv(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    save_state(MemoryState(1, {1: 0}, Heap({0: 0})), str(a))
    save_state(MemoryState(1, {1: 7}, Heap({7: 7})), str(b))
    assert main(["equiv", "--m1", str(a), "--m2", str(b), "--alpha", "1"]) == 0
    capsys.readouterr()
    save_state(MemoryState(1, {1: 7}, Heap()), str(b))
    assert main(["equiv", "--m1", str(a), "--m2", str(b), "--alpha", "1"]) == 1
    capsys.readouterr()


def test_shrink_roundtrip(tmp_path, capsys):
    src = tmp_path / "big.json"
    cells = {i: i + 1 for i in range(60)}
    save_state(MemoryState(2, {1: 0, 2: 60}, Heap(cells)), str(src))
    out_path = tmp_path / "small.json"
    code = main(["shrink", "-m", str(src), "--alpha", "2", "-o", str(out_path)])
    out = capsys.readouterr().out
    assert code == 0 and "cells:" in out
    small = load_state(str(out_path))
    assert len(small.heap) <= 20
    from slreach.testform import profile

    big = load_state(str(src))
    assert profile(big, 2).satisfied == profile(small, 2).satisfied


def test_usage_errors(capsys, tmp_path):
    assert main(["check", "-f", "emp("]) == 2
    capsys.readouterr()
    assert main(["check", "-f", "emp (", "-m", "nofile.json"]) == 2
    capsys.readouterr()
    assert main(["sat", "-f", "x0 = x1"]) == 2
    capsys.readouterr()
    assert main(["nosuchcmd"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("data", [
    {"store": {"x1": 0}, "heap": {}},
    {"q": "1", "store": {"x1": 0}, "heap": {}},
    [1, 2],
    {"q": 1, "store": {"x1": 0}, "heap": {"0": None}},
    {"q": 1, "store": {"x1": 0, "x01": 1}, "heap": {}},
])
def test_malformed_state_file_is_a_usage_error(tmp_path, capsys, state_file, data):
    path = str(tmp_path / "bad.json")
    with open(path, "w") as fh:
        json.dump(data, fh)
    for argv in [
        ["check", "-f", "emp", "-m", path],
        ["abstract", "-m", path],
        ["equiv", "--m1", state_file, "--m2", path, "--alpha", "1"],
        ["shrink", "-m", path, "--alpha", "1"],
    ]:
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("formula", ["size>=3000", "not " * 3000 + "emp"])
def test_deep_nesting_is_a_usage_error(state_file, capsys, formula):
    assert main(["check", "-f", formula, "-m", state_file]) == 2
    assert capsys.readouterr().err == "error: formula nested too deeply\n"


# Pieces of both grammars (propositional and first-order), and stray text.
_PIECES = [
    "emp", "true", "false", "not", "(", ")", "x1", "x2", "x3", "x0", "=",
    "~>", "|->", "*", "-*", "-o", "/\\", "\\/", "=>", ",", ";", ".", "forall",
    "exists", "ls(x1,x2)", "reach(x2,x1)", "reach+(x1,x1)", "alloc(x2)",
    "size>=2", "size<=1", "size=0", "size>=", "allocinv(x1; x2)",
    "loop2(x1; x2)", "nexteq(x1,x2)", "nextpt(x1,x2; x1)", "reacheq(x1,x2; 2)",
    "reachle(x1,x2; 1)", "safe(x1,x2)", "0", "7", "-", "@",
]
_formula_texts = st.one_of(
    st.lists(st.sampled_from(_PIECES), max_size=10).map(" ".join),
    st.text(max_size=12),
)


@pytest.fixture(scope="module")
def fuzz_state(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "state.json"
    save_state(MemoryState(2, {1: 0, 2: 3}, Heap({0: 1, 1: 3})), str(path))
    return str(path)


def _quiet_main(argv):
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


@settings(max_examples=300, deadline=None)
@given(text=_formula_texts)
def test_fuzz_check_and_translate_exit_codes(fuzz_state, text):
    # sat is left out: it does not terminate on some q = 3 formulae
    assert _quiet_main(["check", "-f", text, "-m", fuzz_state]) in (0, 1, 2)
    assert _quiet_main(["translate", "--fo", text]) in (0, 1, 2)
