import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swanss.cli import main
from swanss.corpus import (
    build_circle,
    build_mp_profile,
    build_sphere_join,
    corpus_names,
    run_entry,
)
from swanss.gmodule import module_from_multiplicities
from swanss.report import canonical_json


def test_corpus_names_cover_all_kinds():
    names = corpus_names()
    assert "sphere-join-5-1-0" in names
    assert "mp-profile-5" in names
    assert "bredon" in names


def test_constructor_validation():
    with pytest.raises(ValueError):
        build_circle(4)
    with pytest.raises(ValueError):
        build_sphere_join(5, 0, 0)
    with pytest.raises(ValueError):
        build_sphere_join(4, 1, 1)
    with pytest.raises(ValueError):
        build_mp_profile(9)


def test_circle_constructors():
    assert build_circle(3).f_vector() == [3, 3]
    assert build_circle(2).f_vector() == [4, 4]
    assert build_sphere_join(5, 1, 0).vertex_count == 10


def test_light_corpus_entries_pass():
    for name in ("point-3", "circle-3", "suspension-sphere-3", "mp-profile-3",
                 "seifert-1-2", "bredon"):
        result = run_entry(name)
        assert result.ok, [c.to_json() for c in result.checks if not c.ok]
        for check in result.checks:
            assert check.tag in ("published", "immediate", "derived")


def test_unknown_entry():
    with pytest.raises(KeyError):
        run_entry("no-such-entry")


def _run_cli(args, tmp_path=None):
    import contextlib
    import io

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(args)
    return code, out.getvalue()


def test_cli_decompose(tmp_path):
    mod = module_from_multiplicities(3, {2: 1})
    path = tmp_path / "mod.json"
    path.write_text(json.dumps(mod.to_json()))
    code, out = _run_cli(["decompose", str(path)])
    assert code == 0
    data = json.loads(out)
    assert data["decomposition"] == {"2": 1}
    assert data["nice"] is False


def test_cli_decompose_malformed(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"p": 3, "dim": ')
    code = main(["decompose", str(path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "line" in err and "column" in err


@pytest.mark.parametrize(
    "data, named",
    [
        ([1], "JSON object"),
        (None, "JSON object"),
        ({"p": 3.7, "dim": 1, "action": [[1]]}, "'p'"),
        ({"p": 3, "dim": 1, "action": [[1.5]]}, "'action'"),
        ({"p": 3, "action": [[1]]}, "'dim'"),
        ({"p": 3, "dim": "1", "action": [[1]]}, "'dim'"),
        ({"p": 3, "dim": 2, "action": [[1, 0]]}, "'action'"),
        ({"p": 3, "dim": 1, "action": [[2]]}, "'action'"),
        ({"p": 4, "dim": 1, "action": [[1]]}, "'p'"),
        ({"p": 10**30 + 57, "dim": 1, "action": [[1]]}, "'p'"),
    ],
    ids=["list", "null", "float-p", "float-entry", "no-dim", "string-dim", "ragged",
         "order-not-p", "composite-p", "huge-p"],
)
def test_cli_decompose_malformed_module(tmp_path, capsys, data, named):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert main(["decompose", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and named in err


def test_cli_decompose_reduces_entries_mod_p(tmp_path):
    path = tmp_path / "mod.json"
    path.write_text(json.dumps({"p": 3, "dim": 2, "action": [[4, -2], [3 * 10**20, 1]]}))
    code, out = _run_cli(["decompose", str(path)])
    assert code == 0
    assert json.loads(out)["decomposition"] == {"2": 1}


@pytest.mark.parametrize(
    "data",
    [
        {"p": 3.5, "vertices": 1, "generator": [0], "simplices": [[0]]},
        {"p": 3, "vertices": 1, "generator": [0], "simplices": 5},
        {"p": 3, "vertices": 0, "generator": [], "simplices": []},
        {"p": 3, "vertices": 10**30, "generator": [0], "simplices": [[0]]},
    ],
    ids=["float-p", "simplices-not-a-list", "no-vertices", "huge-vertex-count"],
)
def test_cli_analyze_malformed_complex(tmp_path, capsys, data):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert main(["analyze", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_cli_analyze_deterministic(tmp_path):
    path = tmp_path / "circle.json"
    path.write_text(json.dumps(build_circle(3).to_json()))
    code1, out1 = _run_cli(["analyze", str(path), "--no-p-torsion"])
    code2, out2 = _run_cli(["analyze", str(path), "--no-p-torsion"])
    assert code1 == code2 == 0
    assert out1 == out2
    report = json.loads(out1)
    assert report["swan"]["tot_dims"][:4] == [1, 1, 0, 0]
    assert report["zero_row_survives"] is False


def test_cli_analyze_exit_code_on_window_error(tmp_path, capsys):
    path = tmp_path / "circle.json"
    path.write_text(json.dumps(build_circle(3).to_json()))
    code = main(["analyze", str(path), "--kmax", "4"])
    assert code != 0


@pytest.mark.parametrize("rmax", ["1", "0", "-1"])
def test_cli_analyze_rejects_rmax_below_two(tmp_path, capsys, rmax):
    path = tmp_path / "triangle.json"
    path.write_text(json.dumps(build_circle(3).to_json()))
    assert main(["analyze", str(path), "--rmax", rmax]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "below 2" in err


def test_cli_broken_invariant_exits_3(tmp_path, capsys, monkeypatch):
    import itertools

    from swanss import swan

    # total-complex ranks that never repeat break the period check
    calls = itertools.count()
    monkeypatch.setattr(swan, "sparse_rank", lambda columns, p: next(calls))
    path = tmp_path / "circle.json"
    path.write_text(json.dumps(build_circle(3).to_json()))
    assert main(["analyze", str(path)]) == 3
    assert capsys.readouterr().err.startswith("internal error: swan.tot_dims: ")


def test_cli_verify_torus():
    code, out = _run_cli([
        "verify", "--theorem", "torus",
        "--betti-m", "1,2,2,1", "--betti-f", "1,1", "--n", "3",
    ])
    assert code == 0
    assert json.loads(out)["verdicts"][0]["verdict"] == "pass"


def test_cli_verify_entry_not_applicable():
    code, out = _run_cli(["verify", "--theorem", "zp", "--entry", "mp-profile-5"])
    assert code == 0  # not-applicable is not a failure
    assert json.loads(out)["verdicts"][0]["verdict"] == "not-applicable"


def test_cli_verify_missing_inputs():
    code, _ = _run_cli(["verify", "--theorem", "zp"])
    assert code == 2


def test_cli_corpus_single_entry():
    code, out = _run_cli(["corpus", "run", "point-3"])
    assert code == 0
    data = json.loads(out)
    assert data["failed"] == []
    assert data["entries"][0]["name"] == "point-3"


def test_cli_corpus_list_text_format():
    code, out = _run_cli(["--format", "text", "corpus", "list"])
    assert code == 0
    assert "point-3" in out


def test_cli_check_pd_complex(tmp_path):
    path = tmp_path / "join.json"
    path.write_text(json.dumps(build_sphere_join(3, 1, 0).to_json()))
    code, out = _run_cli(["check-pd", str(path), "--n", "3", "--variant", "sspd"])
    assert code == 0
    data = json.loads(out)
    assert data["2"]["sspd"]["holds"] is True


_PAGE = {"field_char": 0, "n": 2, "window": 6}

# n = 0 with the even columns of dim 1: every product 1 x 1 but one
_TALL_TABLE = {
    "field_char": 3, "n": 0, "window": 4, "dims": {"0,0": 1, "2,0": 1, "4,0": 1},
    "products": {f"({k},0)x({k2},0)": [[[0]], [[1]]] if k == k2 == 0 else [[[1]]]
                 for k in (0, 2, 4) for k2 in (0, 2, 4) if k + k2 <= 4},
}


@pytest.mark.parametrize(
    "data",
    [
        {**_PAGE, "dims": 5},
        {**_PAGE, "dims": {"0,0": 1, "2,2": 1}, "products": {"(0,0)x(2,2)": 5}},
        {**_PAGE, "dims": {"0,2": 1}, "differentials": {"2": {"0,2": 5}}},
        [_PAGE],
        {**_PAGE, "dims": {"0,0": 1, "2,2": 1}, "products": {"(0,0)x(2,2)": [[["1/0"]]]}},
        _TALL_TABLE,
        {**_PAGE, "window": 10**30},
        {**_PAGE, "field_char": 1000003},
        # d_2 at (0,2) lands in (2,1), a cell of dim 0
        {**_PAGE, "dims": {"0,2": 1}, "differentials": {"2": {"0,2": [["1"]]}}},
    ],
    ids=["dims-not-an-object", "product-table-not-a-list", "differential-not-a-list",
         "top-level-list", "zero-denominator", "table-not-dim-by-dim", "huge-window",
         "prime-char-above-251", "differential-not-target-by-source"],
)
def test_cli_check_pd_malformed_page(tmp_path, capsys, data):
    path = tmp_path / "page.json"
    path.write_text(json.dumps(data))
    assert main(["check-pd", str(path), "--variant", "pd"]) == 2
    assert capsys.readouterr().err.startswith(f"error: {path}: ")


def test_cli_check_pd_rejects_negative_n(tmp_path, capsys):
    path = tmp_path / "page.json"
    path.write_text(json.dumps(_PAGE))
    assert main(["check-pd", str(path), "--n", "-1"]) == 2
    assert "--n must not be negative" in capsys.readouterr().err


def test_cli_check_pd_rejects_huge_n(tmp_path, capsys):
    path = tmp_path / "page.json"
    path.write_text(json.dumps(_PAGE))
    assert main(["check-pd", str(path), "--n", "257"]) == 2
    assert "--n must not exceed 256" in capsys.readouterr().err


_FUZZ_PAGE = {
    "field_char": 3, "n": 1, "window": 4,
    "dims": {"0,0": 1, "0,1": 1, "2,0": 1, "2,1": 1},
    "differentials": {"2": {"0,1": [[1]]}},
    "products": {"(0,0)x(0,1)": [[[1]]], "(0,0)x(2,1)": [[[1]]]},
}
# each kind of input file: a valid document, the command that reads it
# and its required top-level fields
_FUZZ_DOCS = {
    "module": (module_from_multiplicities(3, {1: 1, 2: 1}).to_json(), "decompose",
               ("p", "dim", "action")),
    "complex": (build_circle(3).to_json(), "analyze", ("p", "vertices", "generator", "simplices")),
    "page": (_FUZZ_PAGE, "check-pd", ("field_char", "n", "window")),
}
_DROP = object()
_FUZZ_VALUES = [_DROP, None, True, 1.5, 10**30, "1/0", [[1, 2], [3]], {"a": [1]}]


def _paths(doc, prefix=()):
    """Every path from the root of a JSON document to a value below it."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        items = ()
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


def _mutated(doc, path, value):
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is _DROP:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


@settings(max_examples=450, deadline=None)
@given(st.sampled_from(sorted(_FUZZ_DOCS)), st.data())
def test_cli_fuzz_exit_codes(kind, data):
    # a value dropped or replaced anywhere in a valid file: every command
    # exits 0, 1 or 2 and raises nothing, and a broken required top-level
    # field is an input error of the command that reads that kind of file
    doc, own_command, required = _FUZZ_DOCS[kind]
    path = data.draw(st.sampled_from(list(_paths(doc))))
    value = data.draw(st.sampled_from(_FUZZ_VALUES))
    with tempfile.TemporaryDirectory() as tmp:
        fname = os.path.join(tmp, f"{kind}.json")
        with open(fname, "w") as fh:
            json.dump(_mutated(doc, path, value), fh)
        for command in ("decompose", "analyze", "check-pd"):
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = main([command, fname])
            assert code in (0, 1, 2), (command, path, value)
            if command == own_command and len(path) == 1 and path[0] in required:
                assert code == 2, (command, path, value)


def test_cli_entry_point_installed(tmp_path):
    path = tmp_path / "mod.json"
    path.write_text(json.dumps(module_from_multiplicities(5, {1: 2}).to_json()))
    proc = subprocess.run(
        [sys.executable, "-m", "swanss.cli", "decompose", str(path)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["decomposition"] == {"1": 2}


def test_canonical_json_stable():
    a = canonical_json({"b": 1, "a": [2, 3]})
    b = canonical_json({"a": [2, 3], "b": 1})
    assert a == b
