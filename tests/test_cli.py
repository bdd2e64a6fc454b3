import pytest

from geork.cli import MethodParseError, main, parse_method, parse_method_list
from geork.tableau import MethodSpec


# ---------------------------------------------------------------------------
# method grammar


def test_parse_method_basic():
    assert parse_method("gauss:s=3") == MethodSpec("gauss", 3)
    assert parse_method("hbvm:k=12,s=3") == MethodSpec("hbvm", 3, 12)
    assert parse_method("hbvm:s=3,k=12") == MethodSpec("hbvm", 3, 12)
    assert parse_method("equip:s=2") == MethodSpec("equip", 2)


def test_parse_method_case_and_space_insensitive():
    assert parse_method("GAUSS: s=3") == MethodSpec("gauss", 3)
    assert parse_method("HbVm:K=6, S=3") == MethodSpec("hbvm", 3, 6)


def test_parse_method_errors():
    with pytest.raises(MethodParseError, match="unknown method kind 'radau'"):
        parse_method("radau:s=3")
    with pytest.raises(MethodParseError, match=r"hbvm requires k \(got"):
        parse_method("hbvm:s=3")
    with pytest.raises(MethodParseError, match="gauss requires s"):
        parse_method("gauss")
    with pytest.raises(MethodParseError, match="hbvm requires k >= s, got k=2, s=3"):
        parse_method("hbvm:k=2,s=3")
    with pytest.raises(MethodParseError, match="k is only meaningful for hbvm"):
        parse_method("gauss:s=3,k=4")
    with pytest.raises(MethodParseError, match="s='three' is not an integer"):
        parse_method("gauss:s=three")
    with pytest.raises(MethodParseError, match="bad parameter 'order=3'"):
        parse_method("gauss:order=3")


def test_round_trip():
    for text in ("gauss:s=3", "hbvm:k=12,s=3", "equip:s=3"):
        assert str(parse_method(text)) == text


def test_parse_method_list_groups_on_kind():
    specs = parse_method_list("gauss:s=3,hbvm:k=6,s=3,equip:s=3")
    assert specs == [MethodSpec("gauss", 3), MethodSpec("hbvm", 3, 6),
                     MethodSpec("equip", 3)]


# ---------------------------------------------------------------------------
# subcommands


def test_tableau_subcommand(capsys):
    assert main(["tableau", "--method", "gauss:s=1"]) == 0
    out = capsys.readouterr().out
    assert "0.50000000000000" in out
    assert "1.00000000000000" in out


def test_tableau_csv_subcommand(capsys):
    assert main(["tableau", "--method", "hbvm:k=6,s=3", "--csv"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "# method hbvm"
    assert out[2] == "# k 6"
    assert len(out) == 4 + 6 + 1


def test_run_fixed_writes_step_csv(tmp_path, capsys):
    out = tmp_path / "steps.csv"
    rc = main(["run", "--method", "gauss:s=3", "--problem", "kepler",
               "--e", "0.6", "--h", "0.1", "--steps", "10", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("t,q1,q2,p1,p2,")
    assert len(lines) == 11


def test_run_is_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["run", "--method", "equip:s=3", "--h", "0.1", "--steps", "5"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_run_adaptive_quartic(tmp_path):
    out = tmp_path / "q.csv"
    rc = main(["run", "--method", "hbvm:k=6,s=3", "--problem", "quartic",
               "--tol", "1e-6", "--periods", "0.5", "--out", str(out)])
    assert rc == 0
    assert out.read_text().splitlines()[0] == "t,q1,p1,h,alpha,stage_iters,err_H"


def test_run_rejects_h_with_tol(tmp_path):
    with pytest.raises(SystemExit):
        main(["run", "--method", "gauss:s=3", "--h", "0.1", "--tol", "1e-8",
              "--out", str(tmp_path / "x.csv")])


def test_run_requires_steps_with_h(tmp_path, capsys):
    rc = main(["run", "--method", "gauss:s=3", "--h", "0.1",
               "--out", str(tmp_path / "x.csv")])
    assert rc == 1
    assert "--steps" in capsys.readouterr().err


def test_convergence_subcommand(tmp_path, capsys):
    prefix = tmp_path / "conv"
    rc = main(["convergence", "--methods", "gauss:s=3", "--periods", "1",
               "--h-divisors", "50,70,100", "--out", str(prefix), "--plot"])
    assert rc == 0
    csv_lines = (tmp_path / "conv.csv").read_text().splitlines()
    assert csv_lines[0] == "method,s,k,observable,h,error,floored"
    assert len(csv_lines) == 1 + 3 * 3
    assert "set logscale xy" in (tmp_path / "conv.gp").read_text()
    assert "slope" in capsys.readouterr().out


def test_drift_subcommand(tmp_path, capsys):
    prefix = tmp_path / "drift"
    rc = main(["drift", "--methods", "gauss:s=3", "--e", "0.3",
               "--tol", "1e-6", "--periods", "3", "--out", str(prefix)])
    assert rc == 0
    text = (tmp_path / "drift.csv").read_text()
    assert text.startswith("method,s,k,invariant,period,max_deviation\n")
    assert "# verdict: gauss:s=3/H=" in text


def test_cli_determinism_of_files(tmp_path):
    args = ["convergence", "--methods", "gauss:s=2", "--periods", "1",
            "--h-divisors", "60,80,100"]
    assert main(args + ["--out", str(tmp_path / "one")]) == 0
    assert main(args + ["--out", str(tmp_path / "two")]) == 0
    assert (tmp_path / "one.csv").read_bytes() == (tmp_path / "two.csv").read_bytes()


# ---------------------------------------------------------------------------
# diagnostics


def test_bad_method_diagnostic_names_subcommand(capsys):
    rc = main(["tableau", "--method", "hbvm:k=2,s=3"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "tableau" in err
    assert "k >= s" in err


def test_bad_eccentricity_diagnostic(tmp_path, capsys):
    rc = main(["run", "--method", "gauss:s=3", "--e", "1.5", "--h", "0.1",
               "--steps", "2", "--out", str(tmp_path / "x.csv")])
    assert rc == 1
    assert "run" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()  # no partial output


def test_unwritable_output_diagnostic(tmp_path, capsys):
    rc = main(["run", "--method", "gauss:s=3", "--h", "0.1", "--steps", "2",
               "--out", str(tmp_path / "missing-dir" / "x.csv")])
    assert rc == 1
    assert "error" in capsys.readouterr().err
