import json
import subprocess
import sys

import pytest

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
    ],
    ids=["float-p", "simplices-not-a-list", "no-vertices"],
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


@pytest.mark.parametrize(
    "data",
    [
        {**_PAGE, "dims": 5},
        {**_PAGE, "dims": {"0,0": 1, "2,2": 1}, "products": {"(0,0)x(2,2)": 5}},
        {**_PAGE, "dims": {"0,2": 1}, "differentials": {"2": {"0,2": 5}}},
        [_PAGE],
        {**_PAGE, "dims": {"0,0": 1, "2,2": 1}, "products": {"(0,0)x(2,2)": [[["1/0"]]]}},
    ],
    ids=["dims-not-an-object", "product-table-not-a-list", "differential-not-a-list",
         "top-level-list", "zero-denominator"],
)
def test_cli_check_pd_malformed_page(tmp_path, capsys, data):
    path = tmp_path / "page.json"
    path.write_text(json.dumps(data))
    assert main(["check-pd", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {path}: ")


def test_cli_check_pd_rejects_negative_n(tmp_path, capsys):
    path = tmp_path / "page.json"
    path.write_text(json.dumps(_PAGE))
    assert main(["check-pd", str(path), "--n", "-1"]) == 2
    assert "--n must not be negative" in capsys.readouterr().err


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
