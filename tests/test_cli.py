import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import geork
from geork import cli, experiments
from geork.cli import main, parse_method, parse_method_list
from geork.tableau import KINDS, MethodSpec

# EQUIP needs s >= 2: at s = 1 there is no alpha to tune
method_specs = st.sampled_from(KINDS).flatmap(lambda kind: st.builds(
    lambda s, extra: MethodSpec(kind, s, s + extra if kind == "hbvm" else None),
    st.integers(2 if kind == "equip" else 1, 64), st.integers(0, 64),
))


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
    with pytest.raises(ValueError, match="unknown method kind 'radau'"):
        parse_method("radau:s=3")
    with pytest.raises(ValueError, match=r"hbvm requires k \(got"):
        parse_method("hbvm:s=3")
    with pytest.raises(ValueError, match="gauss requires s"):
        parse_method("gauss")
    with pytest.raises(ValueError, match="hbvm requires k >= s, got k=2, s=3"):
        parse_method("hbvm:k=2,s=3")
    with pytest.raises(ValueError, match="k is only meaningful for hbvm"):
        parse_method("gauss:s=3,k=4")
    with pytest.raises(ValueError, match="s='three' is not an integer"):
        parse_method("gauss:s=three")
    with pytest.raises(ValueError, match="bad parameter 'order=3'"):
        parse_method("gauss:order=3")
    with pytest.raises(ValueError, match="duplicate parameter 's'"):
        parse_method("gauss:s=3,s=5")
    with pytest.raises(ValueError, match="duplicate parameter 'k'"):
        parse_method("hbvm:k=6,s=3,K=9")


@given(st.lists(method_specs, min_size=1, max_size=4))
def test_round_trip(specs):
    for spec in specs:
        assert parse_method(str(spec)) == spec
    assert parse_method_list(",".join(map(str, specs))) == specs


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
    a, b, c = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "c.csv"
    args = ["run", "--method", "equip:s=3", "--h", "0.1", "--steps", "5"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    # Kepler's default eccentricity is 0.6
    assert main(args + ["--e", "0.6", "--out", str(c)]) == 0
    assert a.read_bytes() == c.read_bytes()


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


@pytest.mark.parametrize("mode,extra", [
    (["--h", "0.1", "--steps", "3"], ["--periods", "2"]),
    (["--tol", "1e-8", "--periods", "1"], ["--steps", "3"]),
], ids=["periods-with-h", "steps-with-tol"])
def test_run_rejects_the_other_modes_option(mode, extra, tmp_path, capsys):
    out = tmp_path / "x.csv"
    rc = main(["run", "--method", "gauss:s=3", *mode, *extra, "--out", str(out)])
    assert rc == 1
    assert extra[0] in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("e", ["0.5", "5", "nan"])
def test_run_rejects_e_with_the_quartic_problem(e, tmp_path, capsys):
    # --e is Kepler's eccentricity; the quartic oscillator has none to set
    out = tmp_path / "x.csv"
    rc = main(["run", "--method", "hbvm:k=6,s=3", "--problem", "quartic", f"--e={e}",
               "--tol", "1e-8", "--periods", "0.5", "--out", str(out)])
    assert rc == 1
    assert "--e" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("h", ["0", "-0.1", "nan", "inf"])
def test_run_rejects_non_positive_or_non_finite_h(h, tmp_path, capsys):
    out = tmp_path / "x.csv"
    rc = main(["run", "--method", "gauss:s=3", f"--h={h}", "--steps", "3", "--out", str(out)])
    assert rc == 1
    assert "h=" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("periods", ["0", "-1", "nan", "inf"])
def test_run_rejects_non_positive_or_non_finite_periods(periods, tmp_path, capsys, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("integrated before checking --periods")

    monkeypatch.setattr(cli, "integrate_adaptive", never)
    out = tmp_path / "x.csv"
    rc = main(["run", "--method", "gauss:s=3", "--tol", "1e-8", f"--periods={periods}",
               "--out", str(out)])
    assert rc == 1
    assert "--periods must be positive and finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ["tableau", "--method", "equip:s=1"],
    ["run", "--method", "equip:s=1", "--h", "0.1", "--steps", "3"],
    ["convergence", "--methods", "gauss:s=3,equip:s=1", "--periods", "1"],
    ["drift", "--methods", "gauss:s=3,equip:s=1", "--periods", "3"],
], ids=lambda args: args[0])
def test_every_subcommand_rejects_equip1(args, tmp_path, capsys):
    # EQUIP(1) is Gauss(1): there is no alpha to tune, so it is not a method
    out = tmp_path / "x"
    rc = main(args + ["--out", str(out)] if args[0] != "tableau" else args)
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "equip:s=1" in captured.err and "gauss:s=1" in captured.err
    assert list(tmp_path.iterdir()) == []


def test_convergence_subcommand(tmp_path, capsys):
    prefix = tmp_path / "conv"
    rc = main(["convergence", "--methods", "gauss:s=3", "--periods", "1",
               "--h-divisors", "50,70,100", "--out", str(prefix), "--plot"])
    assert rc == 0
    csv_lines = (tmp_path / "conv.csv").read_text().splitlines()
    assert csv_lines[0] == "method,s,k,observable,h,error,floored"
    assert len(csv_lines) == 1 + 3 * 3
    assert "set logscale xy" in (tmp_path / "conv.gp").read_text()
    out = capsys.readouterr().out
    assert "gauss:s=3 solution_error: slope " in out
    assert "small-h slope" in out


def test_drift_subcommand(tmp_path, capsys):
    prefix = tmp_path / "drift"
    rc = main(["drift", "--methods", "gauss:s=3", "--e", "0.3",
               "--tol", "1e-6", "--periods", "3", "--out", str(prefix)])
    assert rc == 0
    text = (tmp_path / "drift.csv").read_text()
    assert text.startswith("method,s,k,invariant,period,max_deviation\n")
    assert "# verdict: gauss:s=3/H=" in text


@pytest.mark.parametrize("subcommand,periods", [("convergence", "0"), ("drift", "2")])
def test_campaigns_reject_too_few_periods(subcommand, periods, tmp_path, capsys):
    prefix = tmp_path / "campaign"
    rc = main([subcommand, "--methods", "gauss:s=3", "--e", "0.3", "--periods", periods,
               "--out", str(prefix)])
    assert rc == 1
    assert f"periods={periods}" in capsys.readouterr().err
    assert not (tmp_path / "campaign.csv").exists()


@pytest.mark.parametrize("divisors,message", [
    ("50,50,100", "appears more than once"),
    ("50,0,100", "divisors must be positive"),
    ("50,70,abc", "--h-divisors must be comma-separated integers, got '50,70,abc'"),
], ids=["repeated", "zero", "not-an-integer"])
def test_convergence_rejects_a_bad_divisor_list(divisors, message, tmp_path, capsys):
    prefix = tmp_path / "conv"
    rc = main(["convergence", "--methods", "gauss:s=2", "--periods", "1",
               "--h-divisors", divisors, "--out", str(prefix)])
    assert rc == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "conv.csv").exists()


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


@pytest.mark.parametrize("method", ["gauss:s=2", "gauss:s=3", "hbvm:k=6,s=3"])
def test_tableau_rejects_alpha_without_effect(method, capsys):
    rc = main(["tableau", "--method", method, "--alpha", "0.7"])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"alpha has no effect on {method}" in captured.err


@pytest.mark.parametrize("alpha", ["nan", "inf"])
def test_tableau_rejects_non_finite_alpha(alpha, capsys):
    rc = main(["tableau", "--method", "equip:s=3", "--alpha", alpha])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"alpha must be finite, got alpha={alpha}" in captured.err


def test_tableau_alpha_reaches_equip(capsys):
    assert main(["tableau", "--method", "equip:s=2", "--alpha", "0.7", "--csv"]) == 0
    assert "# alpha 0.69999999999999996" in capsys.readouterr().out


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


@pytest.mark.parametrize("subcommand, integrate", [
    ("run", "integrate_fixed"), ("convergence", "convergence_study"), ("drift", "drift_study")])
def test_missing_output_directory_is_reported_before_integrating(subcommand, integrate,
                                                                  tmp_path, monkeypatch, capsys):
    def never(*args, **kwargs):
        raise AssertionError("integrated before checking --out")

    monkeypatch.setattr(cli, integrate, never)
    out = tmp_path / "runs" / "x"
    extra = ["--method", "gauss:s=3", "--h", "0.1", "--steps", "2"] if subcommand == "run" else []
    rc = main([subcommand, *extra, "--out", str(out)])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"geork {subcommand}: error: output directory {str(out.parent)!r} does not exist" \
        in captured.err
    assert list(tmp_path.iterdir()) == []


def test_unopenable_output_keeps_the_existing_file(tmp_path, monkeypatch, capsys):
    # a read-only file is writable for root, so the failing open is simulated
    def refuse(path, *args, **kwargs):
        raise PermissionError(f"Permission denied: {str(path)!r}")

    out = tmp_path / "x.csv"
    out.write_text("earlier results\n")
    monkeypatch.setattr(experiments, "open", refuse, raising=False)
    rc = main(["run", "--method", "gauss:s=3", "--h", "0.1", "--steps", "2", "--out", str(out)])
    assert rc == 1
    assert "Permission denied" in capsys.readouterr().err
    assert out.read_text() == "earlier results\n"


def test_module_entry_point_runs_without_warnings():
    # python -m geork.cli must not find geork.cli already imported by the package
    env = {**os.environ, "PYTHONPATH": str(Path(geork.__file__).resolve().parents[1])}
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "geork.cli", "tableau", "--method", "gauss:s=1",
         "--csv"], env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("# method gauss\n")
