import json
import subprocess
import sys

import pytest

import kemod as K
from kemod.cli import main
from kemod.io import fixture_path, load_module, save_module
from test_io import MALFORMED


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture()
def w43(tmp_path):
    path = tmp_path / "w43.json"
    save_module(K.w_module(3, 4, 3), path)
    return str(path)


def test_validate_ok(w43, capsys):
    code, out, _ = run_cli(["validate", w43], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] and doc["dim"] == 9


def test_jtype_generic(w43, capsys):
    code, out, _ = run_cli(["jtype", w43, "--generic"], capsys)
    assert code == 0
    assert json.loads(out)["jordan_type"] == "[3]^2[2][1]"


def test_jtype_point(w43, capsys):
    code, out, _ = run_cli(["jtype", w43, "--point", "1,1"], capsys)
    assert code == 0
    assert json.loads(out)["jordan_type"] == "[3]^2[2][1]"


def test_cjt_fixture(capsys):
    code, out, _ = run_cli(["cjt", str(fixture_path("sixteen"))], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "cjt"
    assert doc["jordan_type"] == "[3]^4[2]^2"


def test_bundle_w_module(w43, capsys):
    code, out, _ = run_cli(["bundle", w43, "--i", "1"], capsys)
    assert code == 0
    assert json.loads(out)["splitting"] == "O(-3)"


def test_bundle_mainexample(capsys):
    code, out, _ = run_cli(["bundle", str(fixture_path("mainexample")), "--i", "1"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["twists"] == [-1, -1]


def test_bundle_window_flag(capsys):
    # bundle takes no window width: splitting types have one engine
    with pytest.raises(SystemExit) as exc:
        main(["bundle", str(fixture_path("mainexample")), "--i", "1", "--window", "12"])
    assert exc.value.code == 2
    assert "--window" in capsys.readouterr().err


def test_bundle_refusal_exit_code(tmp_path, capsys):
    import numpy as np

    x1 = np.zeros((2, 2), dtype=np.int64)
    x1[1, 0] = 1
    bad = K.KEModule(K.FieldCtx(2), 2, [x1, np.zeros((2, 2), dtype=np.int64)])
    path = tmp_path / "bad.json"
    save_module(bad, path)
    code, _, err = run_cli(["bundle", str(path), "--i", "1"], capsys)
    assert code == 1
    assert "refused" in err


def test_bad_sampling_options_exit_2(tmp_path, capsys):
    path = str(tmp_path / "free3.json")
    save_module(K.free_module(K.FieldCtx(2), 3, 1), path)
    for opt in (["--ext-degree", "0"], ["--ext-degree", "-1"], ["--samples", "-1"]):
        code, out, err = run_cli(["cjt", path] + opt, capsys)
        assert (code, out) == (2, ""), opt
        assert err.startswith("input error"), opt
    for opt in (["--samples", "0"], ["--ext-degree", "1"]):
        assert run_cli(["cjt", path] + opt, capsys)[0] == 0, opt


def test_malformed_input_exit_code(tmp_path, capsys):
    path = tmp_path / "junk.json"
    path.write_text("{not json")
    code, _, err = run_cli(["validate", str(path)], capsys)
    assert code == 2


def test_invalid_module_file_exit_code(tmp_path, capsys):
    import numpy as np

    a = np.array([[0, 1, 0], [0, 0, 0], [0, 0, 0]])
    b = np.array([[0, 0, 0], [0, 0, 1], [0, 0, 0]])
    doc = {
        "format": "kemod-module",
        "version": 1,
        "p": 2,
        "field_degree": 1,
        "r": 2,
        "dim": 3,
        "generators": [[int(v) for v in a.reshape(-1)], [int(v) for v in b.reshape(-1)]],
    }
    path = tmp_path / "noncomm.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(["validate", str(path)], capsys)
    assert code == 2  # fails to parse into a valid module


@pytest.mark.parametrize("doc", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_module_file_exits_2(doc, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(["validate", str(path)], capsys)
    assert (code, out) == (2, "") and err.startswith("input error")


@pytest.mark.parametrize("field", [K.FieldCtx(3), K.FieldCtx(3, 2)], ids=["F3", "F9"])
@pytest.mark.parametrize(
    "argv", [["restrict", "--matrix", "1,0;0", "-o", "out.json"], ["line-splitting", "--i", "1", "--line", "1;0,1"]]
)
def test_ragged_matrix_exits_2(argv, field, tmp_path, capsys):
    path = str(tmp_path / "w.json")
    save_module(K.w_module(field, 3, 2), path)
    code, out, err = run_cli([argv[0], path, *argv[1:]], capsys)
    assert (code, out) == (2, "") and err.startswith("input error")


def test_restrict_round_trip(w43, tmp_path, capsys):
    out_file = tmp_path / "restricted.json"
    code, _, _ = run_cli(["restrict", w43, "--matrix", "1,1;0,1", "-o", str(out_file)], capsys)
    assert code == 0
    mod = load_module(out_file)
    assert mod.validate().ok and mod.r == 2


def test_line_splitting(w43, capsys):
    code, out, _ = run_cli(["line-splitting", w43, "--i", "1", "--line", "1,0;0,1"], capsys)
    assert code == 0
    assert json.loads(out)["twists"] == [-3]


def test_genker_genimg_filtration(capsys):
    fix = str(fixture_path("mainexample"))
    code, out, _ = run_cli(["genker", fix, "--power", "2"], capsys)
    assert code == 0
    assert json.loads(out)["dim"] == 6
    code, out, _ = run_cli(["genimg", fix, "--power", "2"], capsys)
    assert code == 0
    assert json.loads(out)["dim"] == 0
    code, out, _ = run_cli(["filtration", fix], capsys)
    assert code == 0
    layers = json.loads(out)["layers"]
    assert layers[0]["dim"] == 0 and layers[-1]["dim"] == 7


def test_genker_on_a_rank_three_file(tmp_path, capsys):
    # kE over F_2 with r = 3: K^1 is the radical, spanned by the seven
    # monomials of positive degree
    path = str(tmp_path / "free3.json")
    save_module(K.free_module(K.FieldCtx(2), 3, 1), path)
    code, out, _ = run_cli(["genker", path, "--power", "1"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert (doc["dim"], doc["method"], doc["certified"]) == (7, "lattice-point-kernels", True)
    assert len(doc["basis"]) == 7 and all(row[0] == 0 for row in doc["basis"])


def test_layer_extraction(tmp_path, capsys):
    fix = str(fixture_path("sixteen"))
    out_file = tmp_path / "layer.json"
    code, out, _ = run_cli(
        ["layer", fix, "--top=-1", "--bottom", "2", "-o", str(out_file)], capsys
    )
    assert code == 0
    assert json.loads(out)["dim"] == 16
    assert load_module(out_file).validate().ok


def test_dual_wmodule_syzygy_dsum(tmp_path, capsys):
    wfile = tmp_path / "w.json"
    code, out, _ = run_cli(["wmodule", "--p", "3", "--n", "2", "--d", "2", "-o", str(wfile)], capsys)
    assert code == 0 and json.loads(out)["dim"] == 3
    dfile = tmp_path / "wd.json"
    code, _, _ = run_cli(["dual", str(wfile), "-o", str(dfile)], capsys)
    assert code == 0
    sfile = tmp_path / "syz.json"
    code, out, _ = run_cli(["syzygy", "--p", "2", "--r", "2", "--n", "1", "-o", str(sfile)], capsys)
    assert code == 0 and json.loads(out)["dim"] == 3
    dsfile = tmp_path / "sum.json"
    code, out, _ = run_cli(["dsum", str(wfile), str(dfile), "-o", str(dsfile)], capsys)
    assert code == 0 and json.loads(out)["dim"] == 6
    assert load_module(dsfile).dim == 6


def test_chern_command(w43, capsys):
    code, out, _ = run_cli(["chern", w43], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["identity"]["ok"]
    assert doc["splittings"]["1"] == "O(-3)"


def test_decompose_and_isoprobe(tmp_path, capsys):
    w = K.w_module(3, 2, 2)
    m = K.direct_sum(w, w)
    mfile = tmp_path / "m.json"
    save_module(m, mfile)
    code, out, _ = run_cli(["decompose", str(mfile), "--seed", "3"], capsys)
    assert code == 0
    assert sorted(json.loads(out)["summand_dims"]) == [3, 3]
    wfile = tmp_path / "w.json"
    save_module(w, wfile)
    code, out, _ = run_cli(["isoprobe", str(wfile), str(wfile)], capsys)
    assert code == 0
    assert json.loads(out)["verdict"] == "isomorphic"


def test_verify_theorems_fixture(capsys):
    code, out, _ = run_cli(["verify-theorems", str(fixture_path("mainexample"))], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"]
    assert all(c["ok"] for c in doc["checks"])


def test_scanners_small(capsys):
    code, out, _ = run_cli(["conjecture-scan", "--count", "4", "--seed", "7"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["scanned"] >= 1
    assert "outcome" in doc
    code, out, _ = run_cli(["question-scan", "--count", "3", "--seed", "7"], capsys)
    assert code == 0
    assert "verdicts" in json.loads(out)


def test_report_determinism(w43, capsys):
    _, out1, _ = run_cli(["cjt", w43, "--seed", "5"], capsys)
    _, out2, _ = run_cli(["cjt", w43, "--seed", "5"], capsys)
    assert out1 == out2


def test_console_script_entry_point():
    # the installed entry point must answer --version
    proc = subprocess.run(
        [sys.executable, "-m", "kemod.cli", "--version"], capture_output=True, text=True
    )
    assert proc.returncode == 0


def test_out_flag_writes_report(w43, tmp_path, capsys):
    report_path = tmp_path / "report.json"
    code, out, _ = run_cli(["jtype", w43, "--generic", "--out", str(report_path)], capsys)
    assert code == 0
    assert out == ""
    doc = json.loads(report_path.read_text())
    assert doc["jordan_type"] == "[3]^2[2][1]"


def test_verify_theorems_non_cjt_reports(tmp_path, capsys):
    import numpy as np

    x1 = np.zeros((2, 2), dtype=np.int64)
    x1[1, 0] = 1
    bad = K.KEModule(K.FieldCtx(2), 2, [x1, np.zeros((2, 2), dtype=np.int64)])
    path = tmp_path / "noncjt.json"
    save_module(bad, path)
    code, out, _ = run_cli(["verify-theorems", str(path)], capsys)
    assert code == 0  # nothing verifiable failed; bundle checks were skipped
    doc = json.loads(out)
    assert doc["cjt"] == "not_cjt"
    assert "skipped" in doc["note"]


def test_verify_theorems_lists_skipped_checks_apart(tmp_path, capsys):
    # a check that did not run is listed with its reason, never as passed
    import numpy as np

    x1 = np.zeros((2, 2), dtype=np.int64)
    x1[1, 0] = 1
    path = tmp_path / "noncjt.json"
    save_module(K.KEModule(K.FieldCtx(2), 2, [x1, np.zeros((2, 2), dtype=np.int64)]), path)
    code, out, _ = run_cli(["verify-theorems", str(path)], capsys)
    doc = json.loads(out)
    assert code == 0 and doc["ok"]
    assert doc["checks"] == []
    assert {s["check"]: s["reason"] for s in doc["skipped"]} == {
        "bundle checks": "module is not of constant Jordan type",
        "inclusion chains": "module does not have constant rank",
    }
    code, out, _ = run_cli(["verify-theorems", str(fixture_path("mainexample"))], capsys)
    doc = json.loads(out)
    assert doc["skipped"] == []
    assert "inclusion chains" in {c["check"] for c in doc["checks"]}


def test_one_parser_serves_every_call(w43, monkeypatch, capsys):
    # main builds its parser once per process; commands run one after another
    # report what each reports in a process of its own
    from kemod import cli

    builds = []
    real = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or real())
    cli._parser.cache_clear()
    try:
        argvs = [["cjt", w43, "--seed", "5"], ["bundle", w43, "--i", "1"], ["jtype", w43, "--generic"]]
        in_process = [run_cli(argv, capsys)[:2] for argv in argvs + argvs[::-1]]
    finally:
        cli._parser.cache_clear()
    assert len(builds) == 1
    for n, argv in enumerate(argvs):
        proc = subprocess.run([sys.executable, "-m", "kemod.cli", *argv], capture_output=True, text=True)
        alone = (proc.returncode, proc.stdout)
        assert in_process[n] == alone and in_process[-1 - n] == alone, argv
