import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from geork import experiments
from geork.dynamics import HamiltonianSystem, State, kepler_system, quartic_oscillator
from geork.experiments import (
    PERIOD,
    ConvergenceResult,
    convergence_study,
    drift_reports,
    drift_study,
    fit_order,
    floor_flags,
    pinned_constant,
    run_adaptive_periods,
    write_convergence_csv,
    write_convergence_plot,
    write_drift_csv,
    write_drift_plot,
    write_step_csv,
)
from geork.integrator import (
    MinStepReached, NonConvergence, SolverConfig, StepRecord, integrate_fixed,
)
from geork.tableau import MethodSpec

GAUSS2 = MethodSpec("gauss", 2)
GAUSS3 = MethodSpec("gauss", 3)


# ---------------------------------------------------------------------------
# fitting


def test_fit_order_exact_power_law():
    hs = [0.1, 0.05, 0.025]
    slope, constant = fit_order([(h, h**6) for h in hs])
    assert slope == pytest.approx(6.0, abs=1e-9)
    assert constant == pytest.approx(1.0, rel=1e-9)


def test_fit_order_with_prefactor():
    hs = [0.4, 0.2, 0.1, 0.05]
    slope, constant = fit_order([(h, 3 * h**2) for h in hs])
    assert slope == pytest.approx(2.0, abs=1e-9)
    assert constant == pytest.approx(3.0, rel=1e-9)


def test_fit_order_rejects_bad_input(capfd):
    with pytest.raises(ValueError):
        fit_order([(0.1, 1e-3), (0.05, 1e-4)])
    with pytest.raises(ValueError):
        fit_order([(0.1, 1e-3), (0.05, 0.0), (0.025, 1e-5)])
    # a non-positive or non-finite stepsize or error is rejected before any log
    # or fit, so it neither returns NaN nor warns nor reaches LAPACK
    for bad in (math.nan, math.inf, -math.inf, 0.0, -0.05):
        for sample in ((0.05, bad), (bad, 1e-4)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match="positive and finite"):
                    fit_order([(0.1, 1e-3), sample, (0.025, 1e-5)])
    # one stepsize repeated has no slope: rejected before the fit, which
    # would warn and print LAPACK errors on stderr
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="2 distinct stepsizes"):
            fit_order([(0.1, 1e-3), (0.1, 1e-4), (0.1, 1e-5)])
    assert capfd.readouterr().err == ""


def test_floor_exclusion_recovers_slope():
    # h^6 law above 1e-13, flat 1e-15 round-off below: flagged points must not
    # pollute the fit
    hs = [0.2, 0.1, 0.05, 0.006, 0.004]
    errs = [h**6 if h**6 >= 1e-13 else 1e-15 for h in hs]
    flags = floor_flags(errs, "energy_error", ref_energy=-0.5)
    assert flags == [False, False, False, True, True]
    kept = [(h, e) for (h, e), fl in zip(zip(hs, errs), flags) if not fl]
    slope, _ = fit_order(kept)
    assert slope == pytest.approx(6.0, abs=0.1)


def test_floor_rule_constants():
    eps = np.finfo(float).eps
    assert floor_flags([49 * eps * 0.5], "energy_error", -0.5) == [True]
    assert floor_flags([51 * eps * 0.5], "momentum_error", -0.5) == [False]
    assert floor_flags([0.9e-12], "solution_error", -0.5) == [True]
    assert floor_flags([1.1e-12], "solution_error", -0.5) == [False]


def test_pinned_constant_exact():
    samples = tuple((h, 7.0 * h**6) for h in (0.1, 0.05, 0.025))
    res = ConvergenceResult(
        method=GAUSS3, observable="solution_error", samples=samples,
        floored=(False, False, False), slope=6.0, constant=7.0)
    assert pinned_constant(res, slope=6.0) == pytest.approx(7.0, rel=1e-12)


def test_pinned_constant_of_an_all_floored_series_is_nan():
    samples = tuple((h, 1e-16) for h in (0.1, 0.05, 0.025))
    res = ConvergenceResult(
        method=GAUSS3, observable="solution_error", samples=samples,
        floored=(True, True, True), slope=math.nan, constant=math.nan)
    assert math.isnan(pinned_constant(res))


def test_fine_slope_is_the_small_h_rate():
    # an order-6 error with a negative h^8 term, as HBVM(4,3) shows on Kepler:
    # on the default grid the chord falls below 5.5, the small-h rate does not
    hs = [PERIOD / d for d in (50, 70, 100, 140, 200, 280)]
    samples = tuple((h, h**6 - 40.0 * h**8) for h in hs)
    flags = (False,) * 5 + (True,)
    slope, constant = fit_order(samples[:5])
    res = ConvergenceResult(
        method=MethodSpec("hbvm", 3, 4), observable="solution_error", samples=samples,
        floored=flags, slope=slope, constant=constant)
    # the floored smallest h is skipped: the fit runs over d = 100, 140, 200
    assert res.fine_slope == fit_order(samples[2:5])[0]
    assert res.slope < 5.5 < res.fine_slope < 6.0
    few = ConvergenceResult(
        method=GAUSS3, observable="solution_error", samples=samples[:3],
        floored=(False, True, False), slope=math.nan, constant=math.nan)
    assert math.isnan(few.fine_slope)


# ---------------------------------------------------------------------------
# convergence study


@pytest.fixture(scope="module")
def small_study():
    cfg = SolverConfig()
    h_grid = [PERIOD / d for d in (100, 140, 200)]
    return convergence_study([GAUSS2], 0.6, 2, h_grid, cfg)


def test_study_shape_and_order(small_study):
    assert len(small_study) == 3
    assert [r.observable for r in small_study] == [
        "solution_error", "energy_error", "momentum_error"]
    for res in small_study:
        hs = [h for h, _ in res.samples]
        assert hs == sorted(hs, reverse=True)
        assert len(res.samples) == 3


def test_study_solution_order_four(small_study):
    sol = small_study[0]
    assert 3.5 <= sol.slope <= 4.5  # gauss s=2 has order 4


def test_study_monotone_sanity(small_study):
    # pre-floor samples: error increasing in h, single inversions < 20%
    # tolerated (flagged, not failed)
    for res in small_study:
        kept = [e for (h, e), fl in zip(res.samples, res.floored) if not fl]
        inversions = [
            (lo, hi) for hi, lo in zip(kept, kept[1:]) if lo > hi * 1.2]
        if inversions:
            # round-off-dominated series may invert; genuine convergent series
            # must not
            assert max(e for e in kept) < 1e-10, (res.observable, inversions)


def test_study_rejects_non_dividing_h():
    with pytest.raises(ValueError):
        convergence_study([GAUSS2], 0.6, 2, [1.0], SolverConfig())


def test_study_failure_names_the_method_and_h():
    # the fixed driver's context, passed through unwrapped
    starved = SolverConfig(max_stage_iters=2)
    with pytest.raises(NonConvergence,
                       match=r"^gauss:s=3 failed at step 0 \(t=0, h=0\.125664\): stage residual"):
        convergence_study([GAUSS3], 0.6, 1, [PERIOD / 50], starved)


@pytest.fixture
def no_integration(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("integrated before checking the inputs")

    monkeypatch.setattr(experiments, "integrate_fixed", never)
    monkeypatch.setattr(experiments, "integrate_adaptive", never)


def test_study_rejects_a_repeated_stepsize_before_integrating(no_integration):
    h = PERIOD / 50
    with pytest.raises(ValueError, match=f"h={h} appears more than once"):
        convergence_study([GAUSS2], 0.6, 1, [h, PERIOD / 100, PERIOD / 50], SolverConfig())


@pytest.mark.parametrize("h", [0.0, math.nan, math.inf, -PERIOD / 50])
def test_study_rejects_a_bad_stepsize_before_integrating(h, no_integration):
    # 0 used to divide by zero and NaN to fail converting the step count
    with pytest.raises(ValueError, match=f"positive and finite, got h={h}"):
        convergence_study([GAUSS2], 0.6, 1, [PERIOD / 50, h, PERIOD / 100], SolverConfig())


@pytest.mark.parametrize("periods", [0, -1])
def test_study_rejects_periods_below_one(periods):
    # at periods = 0 every h would fail to divide the empty time span
    with pytest.raises(ValueError, match=f"periods={periods}"):
        convergence_study([GAUSS2], 0.6, periods, [PERIOD / 50], SolverConfig())


@pytest.mark.parametrize("periods", [math.nan, math.inf])
def test_study_rejects_non_finite_periods_before_integrating(periods, no_integration):
    # NaN used to fail converting the step count, inf to overflow there
    with pytest.raises(ValueError, match=f"finite periods >= 1, got periods={periods}"):
        convergence_study([GAUSS2], 0.6, periods, [PERIOD / 50], SolverConfig())


# ---------------------------------------------------------------------------
# drift study


@pytest.mark.parametrize("periods", [2.5, 3.0, math.nan, math.inf])
def test_adaptive_periods_reject_a_non_integer_before_integrating(periods, no_integration):
    # each used to raise a TypeError from range
    sys, state0 = kepler_system(0.3)
    with pytest.raises(ValueError, match=f"periods must be an integer, got periods={periods}"):
        run_adaptive_periods(GAUSS3, sys, state0.y, periods, 1e-8, SolverConfig())


@pytest.mark.parametrize("periods, period", [
    (0, PERIOD), (-1, PERIOD), (3, 0.0), (3, -1.0), (3, math.nan), (3, math.inf)])
def test_adaptive_periods_reject_a_bad_span_before_integrating(periods, period, no_integration):
    # each used to be reported as a bad t_stops, an argument the caller never passed
    sys, state0 = kepler_system(0.3)
    with pytest.raises(ValueError, match=f"got periods={periods}, period={period}$"):
        run_adaptive_periods(GAUSS3, sys, state0.y, periods, 1e-8, SolverConfig(), period)


@pytest.mark.parametrize("periods", [3.5, math.nan, math.inf])
def test_drift_study_rejects_a_non_integer_period_count_before_integrating(periods,
                                                                             no_integration):
    with pytest.raises(ValueError, match=f"got periods={periods}"):
        drift_study([GAUSS3], 0.3, periods, 1e-6, SolverConfig())


@pytest.fixture(scope="module")
def mild_drift_run():
    cfg = SolverConfig()
    sys, state0 = kepler_system(0.3)
    per = run_adaptive_periods(GAUSS3, sys, state0.y, 4, 1e-8, cfg)
    return sys, state0, per


def test_adaptive_periods_land_on_boundaries(mild_drift_run):
    sys, state0, per = mild_drift_run
    assert len(per) == 4
    for n, recs in enumerate(per, start=1):
        assert recs[-1].state.t == n * PERIOD


def test_drift_reports_structure(mild_drift_run):
    sys, state0, per = mild_drift_run
    reports = drift_reports(GAUSS3, per, sys, state0.y, tol=1e-8)
    assert [r.invariant for r in reports] == ["H", "L"]
    for rep in reports:
        assert len(rep.deviations) == 4
        assert rep.verdict in ("conserved", "drifting")
        assert math.isfinite(rep.drift_slope)


def test_adaptive_periods_name_the_failing_period():
    # one stage iteration never meets the tolerance, so the controller halves
    # down to H_MIN and gives up inside the first period, short of t = 2 pi
    sys, state0 = kepler_system(0.3)
    with pytest.raises(MinStepReached, match=r"^gauss:s=3 failed at t=.*, t_end=6\.28319: "
                                             r"solver failure persists at h=1\.000e-08$"):
        run_adaptive_periods(GAUSS3, sys, state0.y, 3, 1e-8, SolverConfig(max_stage_iters=1))


def test_drift_reports_need_three_periods(mild_drift_run):
    sys, state0, per = mild_drift_run
    with pytest.raises(ValueError):
        drift_reports(GAUSS3, per[:2], sys, state0.y, tol=1e-8)


@pytest.mark.parametrize("periods", [0, 2])
def test_drift_study_rejects_too_few_periods_before_integrating(periods, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("integrated before checking the period count")

    monkeypatch.setattr(experiments, "run_adaptive_periods", never)
    with pytest.raises(ValueError, match=f"periods={periods}"):
        drift_study([GAUSS3], 0.3, periods, 1e-6, SolverConfig())


def test_drift_verdict_rule_synthetic():
    # strong linear growth well above the noise floor: drifting
    sys, state0 = kepler_system(0.3)

    class _Rec:
        def __init__(self, t, y):
            from geork.dynamics import State
            self.state = State(t=t, y=y)
            self.h = 0.1

    def fake_periods(hvals):
        per = []
        for n, dh in enumerate(hvals, start=1):
            y = state0.y.copy()
            y[3] += dh  # perturb p2: moves both H and L
            per.append([_Rec(n * PERIOD, y)])
        return per

    drifting = drift_reports(GAUSS3, fake_periods([1e-5 * n for n in range(1, 11)]),
                             sys, state0.y, tol=1e-8)
    assert all(r.verdict == "drifting" for r in drifting)
    flat = drift_reports(GAUSS3, fake_periods([1e-13] * 10), sys, state0.y, tol=1e-8)
    assert all(r.verdict == "conserved" for r in flat)
    # statistically significant but far below the tolerance-scaled floor
    creep = drift_reports(GAUSS3, fake_periods([1e-13 * n for n in range(1, 11)]),
                          sys, state0.y, tol=1e-8)
    assert all(r.verdict == "conserved" for r in creep)


def test_drift_study_smoke():
    reports = drift_study([GAUSS3], 0.3, 3, 1e-6, SolverConfig())
    assert len(reports) == 2
    assert {r.invariant for r in reports} == {"H", "L"}


# ---------------------------------------------------------------------------
# CSV and plot emission


def test_step_csv_empty_is_header_only(tmp_path):
    sys, state0 = kepler_system(0.6)
    path = tmp_path / "steps.csv"
    write_step_csv([], path, sys, state0.y)
    assert path.read_text() == "t,q1,q2,p1,p2,h,alpha,stage_iters,err_H,err_L\n"


def test_step_csv_one_record(tmp_path, cfg):
    sys, state0 = kepler_system(0.6)
    recs = integrate_fixed(GAUSS3, sys, state0.y, 0.1, 1, cfg)
    path = tmp_path / "steps.csv"
    write_step_csv(recs, path, sys, state0.y)
    lines = path.read_text().splitlines()
    assert len(lines) == 2
    assert len(lines[1].split(",")) == 10


def test_step_csv_one_degree_problem(tmp_path, cfg):
    sys, state0 = quartic_oscillator()
    recs = integrate_fixed(MethodSpec("hbvm", 3, 6), sys, state0.y, 0.1, 3, cfg)
    path = tmp_path / "steps.csv"
    write_step_csv(recs, path, sys, state0.y)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,q1,p1,h,alpha,stage_iters,err_H"
    assert len(lines) == 4


def _planar_harmonic():
    """H = |y|^2 / 2 in two degrees of freedom, with H as its only invariant."""
    def energy(y):
        return 0.5 * np.sum(np.asarray(y, dtype=float) ** 2, axis=-1)

    sys = HamiltonianSystem(name="planar-harmonic", half_dim=2, energy=energy,
                            force=lambda q: -np.asarray(q, dtype=float), invariants={"H": energy})
    return sys, State(t=0.0, y=np.array([1.0, 0.0, 0.0, 1.0]))


@pytest.mark.parametrize("problem,errs", [
    ("harmonic", "err_H"), ("planar-harmonic", "err_H"), ("kepler", "err_H,err_L"),
])
def test_step_csv_error_columns_follow_invariants(problem, errs, harmonic, tmp_path, cfg):
    sys, state0 = {"harmonic": harmonic, "planar-harmonic": _planar_harmonic(),
                   "kepler": kepler_system(0.6)}[problem]
    recs = integrate_fixed(GAUSS2, sys, state0.y, 0.1, 2, cfg)
    path = tmp_path / "steps.csv"
    write_step_csv(recs, path, sys, state0.y)
    lines = path.read_text().splitlines()
    assert lines[0].endswith(",stage_iters," + errs)
    assert all(len(row.split(",")) == len(lines[0].split(",")) for row in lines[1:])


def test_convergence_csv_cardinality(tmp_path, small_study):
    path = tmp_path / "conv.csv"
    write_convergence_csv(small_study, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "method,s,k,observable,h,error,floored"
    assert len(lines) == 1 + 3 * 3  # three observables x three stepsizes


def test_csv_dispatch_and_reproducibility(tmp_path, small_study, mild_drift_run):
    sys, state0, per = mild_drift_run
    reports = drift_reports(GAUSS3, per, sys, state0.y, tol=1e-8)
    conv_a, conv_b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_convergence_csv(small_study, conv_a)
    write_convergence_csv(small_study, conv_b)
    assert conv_a.read_bytes() == conv_b.read_bytes()
    drift_a, drift_b = tmp_path / "da.csv", tmp_path / "db.csv"
    write_drift_csv(reports, drift_a)
    write_drift_csv(reports, drift_b)
    assert drift_a.read_bytes() == drift_b.read_bytes()


def test_drift_csv_format(tmp_path, mild_drift_run):
    sys, state0, per = mild_drift_run
    reports = drift_reports(GAUSS3, per, sys, state0.y, tol=1e-8)
    path = tmp_path / "drift.csv"
    write_drift_csv(reports, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "method,s,k,invariant,period,max_deviation"
    data = [ln for ln in lines[1:] if not ln.startswith("#")]
    verdicts = [ln for ln in lines if ln.startswith("# verdict:")]
    assert len(data) == 2 * 4
    assert len(verdicts) == 2
    assert all("slope=" in v for v in verdicts)
    assert verdicts[0].startswith("# verdict: gauss:s=3/H=")


def test_csv_numbers_round_trip(tmp_path, small_study):
    path = tmp_path / "conv.csv"
    write_convergence_csv(small_study, path)
    row = path.read_text().splitlines()[1].split(",")
    h, err = float(row[4]), float(row[5])
    assert h == small_study[0].samples[0][0]
    assert err == small_study[0].samples[0][1]


finite = st.floats(allow_nan=False, allow_infinity=False)
# -0.0, the smallest subnormal, the smallest normal, +-1e308 and the largest double
EDGES = (-0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308, 1.7976931348623157e308)


def _bits(values) -> bytes:
    """The float64 bytes of values, so -0.0 and 0.0 differ."""
    return np.asarray(values, dtype=float).tobytes()


def _inert_system():
    """Planar problem with H = 0, so any finite state writes finite error columns."""
    def energy(y):
        return np.zeros(np.shape(y)[:-1])

    return HamiltonianSystem(name="inert", half_dim=2, energy=energy,
                             force=lambda q: np.zeros(np.shape(q)), invariants={"H": energy})


@given(rows=st.lists(st.tuples(*[finite] * 7), min_size=1, max_size=5))
@example(rows=[EDGES])
def test_step_csv_numbers_round_trip(rows, tmp_path_factory):
    # rows are (t, q1, q2, p1, p2, h, alpha)
    records = [StepRecord(state=State(t=t, y=np.array(y)), h=h, alpha=alpha,
                          stage_iters=1, alpha_iters=0)
               for t, *y, h, alpha in rows]
    path = tmp_path_factory.mktemp("steps") / "steps.csv"
    write_step_csv(records, path, _inert_system(), np.zeros(4))
    header, *lines = path.read_text().splitlines()
    idx = [header.split(",").index(name) for name in ("t", "q1", "q2", "p1", "p2", "h", "alpha")]
    got = [[float(line.split(",")[i]) for i in idx] for line in lines]
    assert _bits(got) == _bits(rows)


@given(samples=st.lists(st.tuples(finite, finite), min_size=1, max_size=6))
@example(samples=list(zip(EDGES, EDGES[::-1])))
def test_convergence_csv_numbers_round_trip(samples, tmp_path_factory):
    res = ConvergenceResult(method=GAUSS3, observable="solution_error", samples=tuple(samples),
                            floored=(False,) * len(samples), slope=math.nan, constant=math.nan)
    path = tmp_path_factory.mktemp("conv") / "conv.csv"
    write_convergence_csv([res], path)
    header, *lines = path.read_text().splitlines()
    cols = header.split(",")
    h, err = cols.index("h"), cols.index("error")
    got = [(float(line.split(",")[h]), float(line.split(",")[err])) for line in lines]
    assert _bits(got) == _bits(samples)


def test_a_failed_write_leaves_no_partial_file(tmp_path, monkeypatch, cfg):
    sys, state0 = kepler_system(0.6)
    recs = integrate_fixed(GAUSS3, sys, state0.y, 0.1, 3, cfg)
    per_row = 1 + len(state0.y) + 2 + len(sys.invariants)  # t, y, h, alpha, the errors
    calls = []

    def fmt_until_row_two(x):
        calls.append(x)
        if len(calls) > per_row:
            raise OSError("disk full")
        return format(float(x), ".17g")

    path = tmp_path / "steps.csv"
    monkeypatch.setattr(experiments, "_fmt", fmt_until_row_two)
    with pytest.raises(OSError, match="disk full"):
        write_step_csv(recs, path, sys, state0.y)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("write", ["csv", "plot"])
def test_a_failed_open_leaves_an_existing_file_untouched(write, tmp_path, monkeypatch,
                                                          small_study):
    # the suite may run as root, for whom a read-only file is writable
    def refuse(path, *args, **kwargs):
        raise PermissionError(f"Permission denied: {str(path)!r}")

    path = tmp_path / "conv.out"
    path.write_text("earlier results\n")
    monkeypatch.setattr(experiments, "open", refuse, raising=False)
    with pytest.raises(PermissionError):
        if write == "csv":
            write_convergence_csv(small_study, path)
        else:
            write_convergence_plot(tmp_path / "conv.csv", path, small_study)
    assert path.read_text() == "earlier results\n"


def test_plot_scripts_reference_csv(tmp_path, small_study, mild_drift_run):
    sys, state0, per = mild_drift_run
    reports = drift_reports(GAUSS3, per, sys, state0.y, tol=1e-8)
    conv_csv, conv_gp = tmp_path / "conv.csv", tmp_path / "conv.gp"
    write_convergence_csv(small_study, conv_csv)
    write_convergence_plot(conv_csv, conv_gp, small_study)
    text = conv_gp.read_text()
    assert "set logscale xy" in text
    assert "'conv.csv'" in text
    assert text.count("with linespoints") == len(small_study)
    drift_csv, drift_gp = tmp_path / "drift.csv", tmp_path / "drift.gp"
    write_drift_csv(reports, drift_csv)
    write_drift_plot(drift_csv, drift_gp, reports)
    text = drift_gp.read_text()
    assert "logscale" not in text  # drift axes are linear
    assert "'drift.csv'" in text
