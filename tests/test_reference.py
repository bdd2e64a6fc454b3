"""The default campaign outputs against reference CSVs, within stated tolerances.

tests/data holds the CSVs that the default ``geork convergence`` and
``geork drift`` wrote with the Jacobi stage sweep (sha256 571a8655... and
555e5339...).  The convergence CSV's 15 EQUIP rows were made again when the
campaign's alpha tolerance went from 1e-13 to 1e-15 (``cli.CONVERGENCE_CONFIG``),
by the step-by-step secant, before fixed EQUIP steps were solved in windows:
at 1e-13 where the secant stops inside the tolerance moved EQUIP's error at
h = 2 pi / 200 by up to 8 %, and at 1e-15 a windowed run and a step-by-step
one agree to 6e-4, so the reference checks the windowed code against another
solver path (the file is now sha256 f586565c...).  A solver change that moves
results at round-off on purpose cannot keep those bytes, so the session's
campaigns are compared with them:

- the drift verdicts are identical;
- a sample whose reference lies above 1e-10 (truncation level) agrees to a
  relative 1e-3;
- a sample whose reference is at most 1e-10 (round-off level) stays at most
  10 times its reference;
- every convergence series whose reference samples all lie above 1e-10 keeps
  its chord slope and its small-h slope to within 0.01.

The stage tolerance alone moves a 2000-step solution by about 1e-10, which is
why truncation-level samples get 1e-3 and not less.  Floored flags are not
compared: a round-off error that falls below the floor turns its flag on, and
the series' printed slope may become n/a.  ``pytest tests/test_reference.py
-s`` prints the largest relative deviation of each campaign.
"""

from pathlib import Path

import pytest

from geork.experiments import fit_order, write_convergence_csv, write_drift_csv

REFERENCE = Path(__file__).parent / "data"
TRUNCATION = 1e-10
REL_TOL = 1e-3
ROUNDOFF_GROWTH = 10.0
SLOPE_TOL = 0.01
_VERDICT = "# verdict: "


def read_campaign(path):
    """({(kind, s, k, column 4): [(x, value), ...]}, {"method/invariant": verdict})."""
    series, verdicts = {}, {}
    _, *lines = Path(path).read_text().splitlines()
    for line in lines:
        if line.startswith(_VERDICT):
            name, verdict = line[len(_VERDICT):].split(" ")[0].rsplit("=", 1)
            verdicts[name] = verdict
        else:
            kind, s, k, name, x, value, *_ = line.split(",")
            series.setdefault((kind, s, k, name), []).append((float(x), float(value)))
    return series, verdicts


def compare_series(ref, new, slopes: bool):
    """(failures, largest relative deviation of a truncation-level sample).

    With ``slopes``, series are (h, error) by decreasing h and their fitted
    orders are compared too.
    """
    failures, worst = [], 0.0
    if ref.keys() != new.keys():
        failures.append(f"series differ: {sorted(ref.keys() ^ new.keys())}")
    for key in sorted(ref.keys() & new.keys()):
        r, n = ref[key], new[key]
        name = "/".join(key)
        if [x for x, _ in r] != [x for x, _ in n]:
            failures.append(f"{name}: sampled at {[x for x, _ in n]}, "
                            f"reference {[x for x, _ in r]}")
            continue
        for (x, want), (_, got) in zip(r, n):
            if want > TRUNCATION:
                rel = abs(got - want) / want
                worst = max(worst, rel)
                if not rel <= REL_TOL:  # NaN fails the comparison
                    failures.append(f"{name} at {x:.6g}: {got:.6e} vs {want:.6e} (rel {rel:.1e})")
            elif not got <= ROUNDOFF_GROWTH * want:
                failures.append(f"{name} at {x:.6g}: round-off {got:.3e} > "
                                f"{ROUNDOFF_GROWTH:g} x {want:.3e}")
        if slopes and all(want > TRUNCATION for _, want in r):
            for label, part in (("chord", slice(None)), ("small-h", slice(-3, None))):
                try:
                    want, got = fit_order(r[part])[0], fit_order(n[part])[0]
                except ValueError as exc:  # a NaN, inf or non-positive error has no slope
                    failures.append(f"{name}: {label} slope: {exc}")
                    continue
                if not abs(got - want) <= SLOPE_TOL:
                    failures.append(f"{name}: {label} slope {got:.4f} vs {want:.4f}")
    return failures, worst


def test_convergence_campaign_matches_reference(convergence_campaign, tmp_path):
    path = tmp_path / "convergence.csv"
    write_convergence_csv(convergence_campaign, path)
    ref, _ = read_campaign(REFERENCE / "geork-convergence.csv")
    failures, worst = compare_series(ref, read_campaign(path)[0], slopes=True)
    print(f"convergence: largest relative deviation above {TRUNCATION:g}: {worst:.2e}")
    assert not failures, "\n".join(failures)


def test_drift_campaign_matches_reference(drift_campaign, tmp_path):
    _, _, data = drift_campaign
    path = tmp_path / "drift.csv"
    write_drift_csv([rep for _, reports in data.values() for rep in reports], path)
    ref, ref_verdicts = read_campaign(REFERENCE / "geork-drift.csv")
    series, verdicts = read_campaign(path)
    failures, worst = compare_series(ref, series, slopes=False)
    if verdicts != ref_verdicts:
        failures.append(f"verdicts {verdicts}, reference {ref_verdicts}")
    print(f"drift: largest relative deviation above {TRUNCATION:g}: {worst:.2e}")
    assert not failures, "\n".join(failures)


# ---------------------------------------------------------------------------
# the comparator itself

# an order-6 series above the truncation level and a round-off one
ORDER6 = [(h, 3.0 * h**6) for h in (0.2, 0.1, 0.05, 0.025)]
ROUNDOFF = [(h, 1e-14) for h in (0.2, 0.1, 0.05, 0.025)]


def _moved(series, i, factor):
    return [(x, v * factor if j == i else v) for j, (x, v) in enumerate(series)]


@pytest.mark.parametrize("new_order6, new_roundoff, ok", [
    (ORDER6, ROUNDOFF, True),
    (_moved(ORDER6, 3, 1 + 0.9e-3), ROUNDOFF, True),
    (_moved(ORDER6, 3, 1 + 1.1e-3), ROUNDOFF, False),
    (_moved(ORDER6, 0, float("nan")), ROUNDOFF, False),
    # round-off may fall to any level, under the floor or to zero, but not grow 10x
    (ORDER6, _moved(ROUNDOFF, 1, 0.0), True),
    (ORDER6, _moved(ROUNDOFF, 1, 10.0), True),
    (ORDER6, _moved(ROUNDOFF, 1, 10.5), False),
    (ORDER6, ROUNDOFF[:3], False),
])
def test_comparator_bounds(new_order6, new_roundoff, ok):
    ref = {("gauss", "3", "", "solution_error"): ORDER6,
           ("gauss", "3", "", "momentum_error"): ROUNDOFF}
    new = {("gauss", "3", "", "solution_error"): new_order6,
           ("gauss", "3", "", "momentum_error"): new_roundoff}
    failures, _ = compare_series(ref, new, slopes=True)
    assert not failures if ok else failures


def test_comparator_checks_slopes_and_series():
    ref = {("gauss", "3", "", "solution_error"): ORDER6}
    # a factor h^0.011 tilts both fitted slopes by 0.011
    tilted = [(h, v * (h / 0.025) ** 0.011) for h, v in ORDER6]
    failures, _ = compare_series(ref, {("gauss", "3", "", "solution_error"): tilted},
                                 slopes=True)
    assert any("slope" in msg for msg in failures)
    failures, _ = compare_series(ref, {("gauss", "3", "", "energy_error"): ORDER6}, slopes=True)
    assert failures and "series differ" in failures[0]


def test_reference_files_parse_as_the_default_campaigns():
    conv, conv_verdicts = read_campaign(REFERENCE / "geork-convergence.csv")
    drift, verdicts = read_campaign(REFERENCE / "geork-drift.csv")
    assert len(conv) == 6 * 3 and all(len(v) == 5 for v in conv.values())
    assert not conv_verdicts
    assert len(drift) == 3 * 2 and all(len(v) == 20 for v in drift.values())
    assert verdicts == {
        "gauss:s=3/H": "drifting", "gauss:s=3/L": "conserved",
        "hbvm:k=12,s=3/H": "conserved", "hbvm:k=12,s=3/L": "drifting",
        "equip:s=3/H": "conserved", "equip:s=3/L": "conserved",
    }
