"""Acceptance suite: every headline claim at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line
per criterion.  The expensive campaigns (fixed-step convergence, adaptive
drift) are session fixtures in conftest.py, shared across the criteria and
with the comparison against the reference outputs in test_reference.py.
"""

import numpy as np
import pytest

from geork.dynamics import kepler_system, quartic_oscillator
from geork.experiments import fit_order, pinned_constant, write_convergence_csv
from geork.integrator import SolverConfig, integrate_fixed
from geork.quadrature import gauss_rule, legendre_eval, vandermonde
from geork.tableau import (
    build_equip_tableau,
    build_gauss,
    build_hbvm,
    MethodSpec,
    symplecticity_residual,
)

GAUSS3 = MethodSpec("gauss", 3)
GAUSS6 = MethodSpec("gauss", 6)
HBVM4 = MethodSpec("hbvm", 3, 4)
HBVM6 = MethodSpec("hbvm", 3, 6)
HBVM9 = MethodSpec("hbvm", 3, 9)
HBVM12 = MethodSpec("hbvm", 3, 12)
EQUIP3 = MethodSpec("equip", 3)

CFG = SolverConfig()
DRIFT_TOL = 1e-8  # the drift campaign's controller tolerance (see conftest.py)
REF_SUBSTEPS = 400


def report(num, desc, failures):
    status = "FAIL" if failures else "PASS"
    print(f"[criterion {num:2d}] {status}  {desc}")
    for msg in failures:
        print(f"               - {msg}")
    assert not failures, f"criterion {num}: " + "; ".join(failures)


@pytest.fixture(scope="module")
def conv(convergence_campaign):
    return {(str(r.method), r.observable): r for r in convergence_campaign}


@pytest.fixture(scope="module")
def drift(drift_campaign):
    sys, state0, data = drift_campaign
    return sys, state0, {name: (per, {r.invariant: r for r in reports})
                         for name, (per, reports) in data.items()}


def collocation_gauss(s):
    x, w = np.polynomial.legendre.leggauss(s)
    c = np.sort(0.5 * (x + 1.0))
    b = 0.5 * w
    V = np.vander(c, increasing=True)
    rhs = np.column_stack([c**q / q for q in range(1, s + 1)])
    A = np.linalg.solve(V.T, rhs.T).T
    return A, b, c


def test_criterion_1_tableau_oracles():
    failures = []
    for s in (1, 2, 3):
        A, b, c = collocation_gauss(s)
        g = build_gauss(s)
        if np.max(np.abs(g.A - A)) > 1e-12 or np.max(np.abs(g.b - b)) > 1e-12:
            failures.append(f"gauss({s}) deviates from the collocation oracle")
        h = build_hbvm(s, s)
        if np.max(np.abs(h.A - g.A)) > 1e-12:
            failures.append(f"hbvm({s},{s}) does not reduce to gauss({s})")
    report(1, "Gauss collocation oracle and hbvm(s,s) reduction (1e-12)", failures)


def test_criterion_2_equip_symplecticity():
    rng = np.random.default_rng(1234)
    failures = []
    for s in (2, 3, 4):
        for alpha in rng.uniform(-1.0, 1.0, size=20):
            res = symplecticity_residual(build_equip_tableau(s, float(alpha)))
            if res > 1e-12:
                failures.append(f"s={s}, alpha={alpha:.4f}: residual {res:.2e}")
    report(2, "EQUIP symplecticity residual <= 1e-12 for random alpha", failures)


def test_criterion_3_solution_order_six(conv):
    # order is the h -> 0 rate: the slope is fitted over the three smallest-h
    # samples, because HBVM(4,3)'s opposite-sign h^8 term bends the full-grid
    # chord at its large-h end
    failures = []
    details = []
    for method in (GAUSS3, HBVM4, HBVM6, EQUIP3):
        res = conv[(str(method), "solution_error")]
        kept = [pt for pt, fl in zip(res.samples, res.floored) if not fl]
        slope = fit_order(kept[-3:])[0]
        details.append(f"{method} {slope:.3f} [grid {res.slope:.3f}]")
        if not 5.5 <= slope <= 6.5:
            failures.append(f"{method}: small-h solution slope {slope:.3f} "
                            f"outside [5.5, 6.5]")
    report(3, f"solution-error order 6, small-h slopes ({', '.join(details)})",
           failures)


def test_criterion_4_error_constant_ratios(conv):
    failures = []
    g = pinned_constant(conv[(str(GAUSS3), "solution_error")], slope=6.0)
    h6 = pinned_constant(conv[(str(HBVM6), "solution_error")], slope=6.0)
    eq = pinned_constant(conv[(str(EQUIP3), "solution_error")], slope=6.0)
    if not 15.0 <= g / h6 <= 100.0:
        failures.append(f"gauss/hbvm6 constant ratio {g / h6:.1f} outside [15, 100]")
    if not 1.0 / 3.0 <= h6 / eq <= 3.0:
        failures.append(f"hbvm6/equip constant ratio {h6 / eq:.2f} outside [1/3, 3]")
    report(4, f"error-constant ratios (gauss/hbvm6={g / h6:.1f}, "
              f"hbvm6/equip={h6 / eq:.2f})", failures)


def test_criterion_5_hamiltonian_orders(conv):
    failures = []
    slope = conv[(str(HBVM4), "energy_error")].slope
    if not 7.0 <= slope <= 9.0:
        failures.append(f"hbvm4 energy slope {slope:.2f} outside [7, 9]")
    for method in (HBVM9, HBVM12):
        res = conv[(str(method), "energy_error")]
        worst = max(err for _, err in res.samples)
        if worst > 1e-11 * 0.5:
            failures.append(f"{method}: max energy deviation {worst:.2e} > 5e-12")
    report(5, f"energy order 2k and practical conservation for k >= 9 "
              f"(hbvm4 slope={slope:.2f})", failures)


def test_criterion_6_angular_momentum(conv):
    failures = []
    for method in (GAUSS3, EQUIP3):
        res = conv[(str(method), "momentum_error")]
        worst = max(err for _, err in res.samples)
        if worst > 1e-11:
            failures.append(f"{method}: max momentum deviation {worst:.2e} > 1e-11")
    slope = conv[(str(HBVM6), "momentum_error")].slope
    if not 5.5 <= slope <= 6.5:
        failures.append(f"hbvm6 momentum slope {slope:.3f} outside [5.5, 6.5]")
    e6 = [err for _, err in conv[(str(HBVM6), "momentum_error")].samples]
    for method in (HBVM9, HBVM12):
        ek = [err for _, err in conv[(str(method), "momentum_error")].samples]
        ratio = max(max(a / b, b / a) for a, b in zip(e6, ek))
        if ratio > 1.5:
            failures.append(f"{method} vs hbvm6 momentum curves differ {ratio:.2f}x")
    report(6, f"momentum: symplectic methods exact, hbvm rate 6 "
              f"(slope={slope:.3f}), k-independent curves", failures)


def test_criterion_7_polynomial_exactness():
    failures = []
    sys, state0 = quartic_oscillator()

    def deviation(method, h, n):
        recs = integrate_fixed(method, sys, state0.y, h, n, CFG)
        ys = np.stack([r.state.y for r in recs])
        return float(np.max(np.abs(sys.energy(ys) - 0.25)))

    exact = deviation(HBVM6, 0.1, 1000)
    if exact > 1e-12:
        failures.append(f"hbvm6 deviation {exact:.2e} > 1e-12 at h=0.1")
    # h^8 decrease of the hbvm4 deviation, fitted above the round-off floor
    hs = (0.8, 0.6, 0.4, 0.3, 0.2)
    errs = [deviation(HBVM4, h, round(96.0 / h)) for h in hs]
    slope = float(np.polyfit(np.log(hs), np.log(errs), 1)[0])
    if not 7.0 <= slope <= 9.0:
        failures.append(f"hbvm4 quartic energy slope {slope:.2f} outside [7, 9]")
    # exact versus not exact at h = 0.4, where hbvm4's h^8 deviation stands
    # clear of round-off (at h = 0.1 it is ~1e-14, at the round-off level)
    exact_04 = deviation(HBVM6, 0.4, 240)
    inexact = errs[hs.index(0.4)]
    if exact_04 > 1e-12:
        failures.append(f"hbvm6 deviation {exact_04:.2e} > 1e-12 at h=0.4")
    if not inexact > 1e-10:
        failures.append(f"hbvm4 deviation {inexact:.2e} not > 1e-10 at h=0.4")
    report(7, f"quartic oscillator: hbvm6 exact ({exact:.1e} at h=0.1, "
              f"{exact_04:.1e} at h=0.4), hbvm4 not ({inexact:.1e} at h=0.4), "
              f"decreasing h^{slope:.1f}", failures)


def test_criterion_8_drift_verdicts(drift):
    sys, state0, data = drift
    failures = []
    want = {
        str(GAUSS3): {"H": "drifting", "L": "conserved"},
        str(HBVM12): {"H": "conserved", "L": "drifting"},
        str(EQUIP3): {"H": "conserved", "L": "conserved"},
    }
    verdicts = []
    for method, expected in want.items():
        _, reports = data[method]
        for inv, verdict in expected.items():
            got = reports[inv].verdict
            verdicts.append(f"{method}/{inv}={got}")
            if got != verdict:
                failures.append(f"{method} {inv}: verdict {got}, expected {verdict}")
    # controller-selected stepsizes (landing steps are boundary artifacts):
    # none below 1e-4, and the largest meets the tolerance, checked against
    # a fine Gauss(6) recomputation from the state the step started at
    largest = []
    for method, (per, _) in data.items():
        selected = []
        prev = state0.y
        for ch in per:
            for i, rec in enumerate(ch):
                if i < len(ch) - 1:
                    selected.append((rec.h, prev, rec.state.y))
                prev = rec.state.y
        h_min = min(h for h, _, _ in selected)
        if h_min < 1e-4:
            failures.append(f"{method}: selected h {h_min:.2e} below 1e-4")
        h, y_start, y_end = max(selected, key=lambda step: step[0])
        ref = integrate_fixed(GAUSS6, sys, y_start, h / REF_SUBSTEPS,
                              REF_SUBSTEPS, CFG)[-1].state.y
        local = float(np.max(np.abs(y_end - ref)))
        largest.append(f"{method} h={h:.3f} err={local:.1e}")
        if local > 2 * DRIFT_TOL:
            failures.append(f"{method}: largest step h={h:.3f} has local error "
                            f"{local:.2e} > {2 * DRIFT_TOL:.0e}")
    report(8, "drift verdicts (" + ", ".join(verdicts) + "), selected h >= 1e-4, "
              "largest steps within tolerance (" + ", ".join(largest) + ")",
           failures)


def test_criterion_9_equip_step_contract(drift):
    sys, state0, data = drift
    per, _ = data[str(EQUIP3)]
    failures = []
    prev = state0.y
    worst = 0.0
    flagged = 0
    total = 0
    for ch in per:
        for rec in ch:
            total += 1
            if rec.flagged:
                flagged += 1
            else:
                H_prev = float(sys.energy(prev))
                resid = abs(float(sys.energy(rec.state.y)) - H_prev)
                worst = max(worst, resid / (1.0 + abs(H_prev)))
            prev = rec.state.y
    if worst > 1e-12:
        failures.append(f"worst unflagged energy residual {worst:.2e} > 1e-12")
    if flagged / total >= 0.01:
        failures.append(f"flagged fraction {flagged / total:.3%} >= 1%")
    report(9, f"EQUIP per-step energy contract (worst {worst:.2e}, "
              f"{flagged}/{total} flagged)", failures)


def test_criterion_10_property_suites(tmp_path, conv):
    failures = []
    # quadrature precision degree
    for n in (1, 2, 3, 5, 8, 13, 20):
        rule = gauss_rule(n)
        for d in range(2 * n):
            if abs(rule.integrate(lambda t: t**d) - 1.0 / (d + 1)) > 1e-13 / (d + 1):
                failures.append(f"rule({n}) misses degree {d}")
        if abs(rule.integrate(lambda t: legendre_eval(n + 1, t) ** 2) - 1.0) < 1e-6:
            failures.append(f"rule({n}) does not fail at degree {2 * n}")
    # discrete orthonormality
    for k, s in ((6, 3), (12, 4)):
        rule = gauss_rule(k)
        W = vandermonde(rule, s + 1)
        G = W.T @ np.diag(rule.weights) @ W
        if np.max(np.abs(G - np.eye(s + 1))) > 1e-12:
            failures.append(f"W^T Omega W != I for k={k}, s={s}")
    # gradient versus central differences
    for sys, _ in (kepler_system(0.6), quartic_oscillator()):
        rng = np.random.default_rng(99)
        checked = 0
        while checked < 50:
            y = rng.uniform(-2, 2, size=2 * sys.half_dim)
            if sys.name == "kepler" and np.linalg.norm(y[:2]) < 0.1:
                continue
            fd = np.array([
                (sys.energy(y + dy) - sys.energy(y - dy)) / 2e-5
                for dy in np.eye(y.size) * 1e-5])
            if not np.allclose(sys.gradient(y), fd, rtol=1e-6, atol=1e-6):
                failures.append(f"{sys.name} gradient mismatch at {y}")
                break
            checked += 1
    # Gauss step reversibility
    sysk, state0 = kepler_system(0.6)
    from geork.integrator import rk_step
    fwd = rk_step(build_gauss(3), sysk, state0.y, 0.05, CFG)
    back = rk_step(build_gauss(3), sysk, fwd.state.y, -0.05, CFG)
    if np.max(np.abs(back.state.y - state0.y)) > 10 * CFG.stage_tol:
        failures.append("gauss(3) step is not reversible")
    # CSV byte reproducibility
    results = sorted(conv.values(), key=lambda r: (str(r.method), r.observable))
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_convergence_csv(results, a)
    write_convergence_csv(results, b)
    if a.read_bytes() != b.read_bytes():
        failures.append("convergence CSV is not byte-stable")
    report(10, "property suites (exactness, orthonormality, gradients, "
               "reversibility, CSV stability)", failures)
