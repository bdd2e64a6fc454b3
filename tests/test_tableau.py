import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from geork import tableau
from geork.quadrature import gauss_rule, vandermonde
from geork.tableau import (
    ButcherTableau,
    MethodSpec,
    build_equip_tableau,
    build_gauss,
    build_hbvm,
    build_tableau,
    core_matrix,
    format_tableau,
    symplecticity_residual,
    tableau_csv,
    xi,
)

TOL = 1e-12  # elementwise tableau comparison tolerance


def equip_tableaus(alphas):
    """EQUIP(s, alpha) for s in 2..6, or Gauss(1), which EQUIP would be at s = 1."""
    return st.builds(build_equip_tableau, st.integers(2, 6), alphas) | st.just(build_gauss(1))


def collocation_gauss(s):
    """Independent Gauss tableau from the collocation conditions.

    Nodes/weights come from numpy's leggauss mapped to [0, 1]; each row of A
    solves sum_j a_ij c_j^(q-1) = c_i^q / q for q = 1..s.
    """
    x, w = np.polynomial.legendre.leggauss(s)
    c = np.sort(0.5 * (x + 1.0))
    b = 0.5 * w
    V = np.vander(c, increasing=True)  # V[i, q] = c_i^q
    rhs = np.column_stack([c ** q / q for q in range(1, s + 1)])
    A = np.linalg.solve(V.T, rhs.T).T
    return A, b, c


def legendre_hbvm(k, s):
    """Independent HBVM(k, s) tableau from its Legendre expansion.

    On the k Gauss nodes, A_ij = b_j sum_{l<s} P_l(c_j) int_0^{c_i} P_l with
    P_l(t) = sqrt(2l + 1) L_l(2t - 1) the L2[0,1]-orthonormal Legendre
    polynomials, evaluated and integrated as numpy Legendre series.
    """
    x, w = np.polynomial.legendre.leggauss(k)  # ascending nodes
    P = np.empty((k, s))
    intP = np.empty((k, s))
    for l in range(s):
        series = np.zeros(l + 1)
        series[l] = np.sqrt(2 * l + 1)
        P[:, l] = np.polynomial.legendre.legval(x, series)
        # dt = du / 2 under u = 2t - 1; the antiderivative vanishes at u = -1
        antideriv = np.polynomial.legendre.legint(series, lbnd=-1.0)
        intP[:, l] = 0.5 * np.polynomial.legendre.legval(x, antideriv)
    b = 0.5 * w
    A = intP @ (P * b[:, None]).T
    return A, b, 0.5 * (x + 1.0)


def core_at(s, alpha):
    """Xhat_s(alpha), built here: alpha added to the outermost pair of the top block."""
    X = np.array(core_matrix(s))
    X[s - 1, s - 2] += alpha
    X[s - 2, s - 1] -= alpha
    return X


def recovered_core(A, n, s):
    """W^T Omega A W_s on n = s or s + 1 nodes: the core that A = W Xhat W_s^T Omega comes from.

    The first n columns of W are Omega-orthonormal there (their products have
    degree <= 2n - 1), so this inverts the tableau formula.  At n = s the
    degree-s mode vanishes at the nodes, so only the top s x s block comes back.
    """
    rule = gauss_rule(n)
    W = vandermonde(rule, n)
    return W.T @ (rule.weights[:, None] * A) @ W[:, :s]


# ---------------------------------------------------------------------------
# xi and the core matrices


def test_xi_values():
    assert xi(1) == pytest.approx(1 / (2 * np.sqrt(3)), rel=1e-15)
    assert xi(2) == pytest.approx(1 / (2 * np.sqrt(15)), rel=1e-15)
    assert xi(3) == pytest.approx(1 / (2 * np.sqrt(35)), rel=1e-15)
    with pytest.raises(ValueError):
        xi(0)
    # xi(2.5) used to return 0.102 and xi(nan) nan
    for j in (2.5, np.nan, "3"):
        with pytest.raises(ValueError, match="index must be an integer"):
            xi(j)


def test_core_matrix_s2():
    np.testing.assert_allclose(
        core_matrix(2)[:2], [[0.5, -0.28867513459481287], [0.28867513459481287, 0.0]],
        atol=1e-14)


def test_core_matrix_s3_alpha_placement():
    X0 = core_matrix(3)[:3]
    X = recovered_core(build_equip_tableau(3, 0.1).A, 3, 3)
    assert X[1, 2] == pytest.approx(-(xi(2) + 0.1), abs=1e-15)
    assert X[2, 1] == pytest.approx(xi(2) + 0.1, abs=1e-15)
    # alpha touches only the outermost pair of the top block
    mask = np.ones_like(X, dtype=bool)
    mask[1, 2] = mask[2, 1] = False
    np.testing.assert_allclose(X[mask], X0[mask], atol=1e-15)


def test_core_matrix_skew_structure():
    rng = np.random.default_rng(7)
    for s in range(1, 7):
        e1e1 = np.zeros((s, s))
        e1e1[0, 0] = 1.0
        X = core_matrix(s)[:s]
        np.testing.assert_allclose(X + X.T, e1e1, atol=1e-15)
        assert np.all(np.diag(X)[1:] == 0.0)
        # the EQUIP core, read back from its tableau; s = 1 takes no alpha
        for alpha in rng.uniform(-2, 2, size=3) if s > 1 else ():
            X = recovered_core(build_equip_tableau(s, alpha).A, s, s)
            np.testing.assert_allclose(X + X.T, e1e1, atol=1e-14)
            np.testing.assert_allclose(np.diag(X)[1:], 0.0, atol=1e-14)


def test_extended_core_matrix():
    np.testing.assert_allclose(core_matrix(1), [[0.5], [xi(1)]], atol=1e-15)
    np.testing.assert_allclose(
        core_matrix(2), [[0.5, -xi(1)], [xi(1), 0.0], [0.0, xi(2)]], atol=1e-15)
    for s in range(1, 7):
        bottom = np.zeros(s)
        bottom[-1] = xi(s)
        np.testing.assert_array_equal(core_matrix(s)[s], bottom)
        if s > 1:  # s = 1 takes no alpha
            # on s + 1 nodes the whole extended core of A0 + alpha D is visible,
            # and alpha leaves its last row alone
            _, A0, D = tableau._pieces(s + 1, s)
            X = recovered_core(A0 + 0.7 * D, s + 1, s)
            np.testing.assert_allclose(X, core_at(s, 0.7), atol=1e-14)


def test_core_matrix_is_read_only():
    with pytest.raises(ValueError):
        core_matrix(3)[0, 0] = 1.0


def test_core_matrix_rejects_s0():
    with pytest.raises(ValueError):
        core_matrix(0)
    for s in (2.5, np.nan, "3"):
        with pytest.raises(ValueError, match="s must be a positive integer"):
            core_matrix(s)


# ---------------------------------------------------------------------------
# Gauss / EQUIP construction


def test_gauss_s1_is_implicit_midpoint():
    t = build_gauss(1)
    np.testing.assert_allclose(t.A, [[0.5]], atol=1e-15)
    np.testing.assert_allclose(t.b, [1.0], atol=1e-15)
    np.testing.assert_allclose(t.c, [0.5], atol=1e-15)


def test_gauss_s2_closed_form():
    t = build_gauss(2)
    r = np.sqrt(3) / 6
    np.testing.assert_allclose(
        t.A, [[0.25, 0.25 - r], [0.25 + r, 0.25]], atol=TOL)


@pytest.mark.parametrize("s", [1, 2, 3, 4, 5, 6])
def test_gauss_matches_collocation_oracle(s):
    t = build_gauss(s)
    A, b, c = collocation_gauss(s)
    np.testing.assert_allclose(t.A, A, atol=TOL)
    np.testing.assert_allclose(t.b, b, atol=TOL)
    np.testing.assert_allclose(t.c, c, atol=TOL)


@pytest.mark.parametrize("s", [1, 2, 3, 4, 5, 6])
def test_equip_alpha0_and_hbvm_ks_reduce_to_gauss(s):
    # one formula builds all three families, so the reduction is bit-exact;
    # EQUIP starts at s = 2
    g = build_gauss(s)
    for t in [build_hbvm(s, s)] + ([build_equip_tableau(s, 0.0)] if s > 1 else []):
        np.testing.assert_array_equal(t.A, g.A)
        np.testing.assert_array_equal(t.b, g.b)
        np.testing.assert_array_equal(t.c, g.c)


@pytest.mark.parametrize("spec,alpha", [(MethodSpec("gauss", s), 0.0) for s in range(1, 7)]
                         + [(MethodSpec("equip", 3), 0.25), (MethodSpec("hbvm", 3, 12), 0.0)],
                         ids=str)
def test_cached_basis_matches_fresh_build(spec, alpha):
    # the second build takes the node rule, A0 and D from the cache the
    # first filled; a fresh rule and W give the same bits
    build_tableau(spec, alpha)
    t = build_tableau(spec, alpha)
    s = spec.s
    rule = gauss_rule(t.n_stages)
    W = vandermonde(rule, s + 1)
    A = (W @ core_matrix(s) @ W[:, :s].T) * rule.weights
    if alpha != 0.0:
        pair = np.outer(W[:, s - 1], W[:, s - 2])
        A = A + alpha * ((pair - pair.T) * rule.weights)
    np.testing.assert_array_equal(t.A, A)
    np.testing.assert_array_equal(t.b, rule.weights)
    np.testing.assert_array_equal(t.c, rule.nodes)
    for array in (t.A, t.b, t.c):
        with pytest.raises(ValueError):
            array[0] = 0.0


@given(s=st.integers(2, 6), alpha=st.floats(-1e3, 1e3))
def test_equip_tableau_is_the_core_formula_at_alpha(s, alpha):
    # A0 + alpha D against W Xhat_s(alpha) W_s^T Omega with alpha placed in
    # the core here, within a few ulps of the largest entry
    rule = gauss_rule(s)
    W = vandermonde(rule, s + 1)
    A = (W @ core_at(s, alpha) @ W[:, :s].T) * rule.weights
    np.testing.assert_allclose(build_equip_tableau(s, alpha).A, A,
                               rtol=0, atol=4 * np.spacing(np.abs(A).max()))


def test_a_new_alpha_builds_no_core_matrix(monkeypatch):
    # the alpha-free pieces are cached per (n, s): an EQUIP build at a new
    # alpha is A0 + alpha D, with no core matrix or product formed again
    calls = []
    monkeypatch.setattr(tableau, "core_matrix",
                        lambda *args: calls.append(args) or core_matrix(*args))
    build_equip_tableau(4, 0.1)
    calls.clear()
    t = build_equip_tableau(4, -0.3)
    assert calls == []
    assert t.alpha == -0.3


def test_tableau_metadata():
    t = build_hbvm(6, 3)
    assert t.n_stages == 6
    assert t.order == 6
    assert t.spec == MethodSpec(kind="hbvm", s=3, k=6)
    assert abs(t.b.sum() - 1.0) <= 1e-14
    t2 = build_equip_tableau(3, 0.25)
    assert t2.alpha == 0.25
    assert t2.order == 6


def test_tableau_shape_must_match_its_spec():
    t = build_gauss(2)
    with pytest.raises(ValueError, match="inconsistent"):
        ButcherTableau(A=t.A, b=t.b, c=t.c, spec=MethodSpec("gauss", 3))


# ---------------------------------------------------------------------------
# HBVM construction


def test_hbvm_2_1_hand_product():
    t = build_hbvm(2, 1)
    c = t.c
    np.testing.assert_allclose(
        t.A, [[c[0] / 2, c[0] / 2], [c[1] / 2, c[1] / 2]], atol=TOL)


@pytest.mark.parametrize("k, s", [(4, 3), (6, 3), (12, 3)])
def test_hbvm_matches_legendre_oracle(k, s):
    t = build_hbvm(k, s)
    A, b, c = legendre_hbvm(k, s)
    np.testing.assert_allclose(t.A, A, atol=1e-13)
    np.testing.assert_allclose(t.b, b, atol=1e-13)
    np.testing.assert_allclose(t.c, c, atol=1e-13)


def test_hbvm_row_sums_equal_c():
    for s in range(1, 5):
        for k in range(s, 13):
            t = build_hbvm(k, s)
            np.testing.assert_allclose(t.A.sum(axis=1), t.c, atol=1e-12)


def test_hbvm_rejects_k_below_s():
    with pytest.raises(ValueError):
        build_hbvm(2, 3)


# ---------------------------------------------------------------------------
# symplecticity and order conditions


def test_gauss_symplecticity_residual():
    assert symplecticity_residual(build_gauss(3)) <= 1e-14


def test_equip_symplectic_for_every_alpha():
    for alpha in (-0.5, 0.01, 2.0):
        assert symplecticity_residual(build_equip_tableau(3, alpha)) <= 1e-13
    rng = np.random.default_rng(2024)
    for s in (2, 3, 4):
        for alpha in rng.uniform(-1, 1, size=20):
            assert symplecticity_residual(build_equip_tableau(s, alpha)) <= 1e-12


@given(t=equip_tableaus(st.floats(-2.0, 2.0)))
def test_equip_symplectic_property(t):
    assert symplecticity_residual(t) <= 1e-12


def test_hbvm_above_s_is_not_symplectic():
    res = symplecticity_residual(build_hbvm(6, 3))
    assert res > 1e-4  # order 1e-2 in practice


def test_equip_row_sums():
    rng = np.random.default_rng(5)
    for s in (3, 4, 5):
        for alpha in rng.uniform(-1, 1, size=5):
            t = build_equip_tableau(s, alpha)
            np.testing.assert_allclose(t.A.sum(axis=1), t.c, atol=1e-12)
    # for s = 2 the perturbation touches the constant mode: row sums move
    t = build_equip_tableau(2, 0.3)
    assert np.max(np.abs(t.A.sum(axis=1) - t.c)) > 1e-3


def quadrature_order_conditions(t: ButcherTableau, order: int) -> float:
    worst = 0.0
    for q in range(1, order + 1):
        worst = max(worst, abs(float(t.b @ t.c ** (q - 1)) - 1.0 / q))
    return worst


def test_b2s_quadrature_conditions():
    specs = [build_gauss(1), build_gauss(2), build_gauss(3), build_gauss(4),
             build_hbvm(6, 3), build_hbvm(9, 3), build_hbvm(12, 3),
             build_equip_tableau(3, 0.2), build_equip_tableau(4, -0.7)]
    for t in specs:
        assert quadrature_order_conditions(t, t.order) <= 1e-12


def test_gauss_stage_order_conditions():
    for s in (1, 2, 3, 4):
        t = build_gauss(s)
        for q in range(1, s + 1):
            lhs = t.A @ t.c ** (q - 1)
            np.testing.assert_allclose(lhs, t.c**q / q, atol=1e-12)


# ---------------------------------------------------------------------------
# MethodSpec and formatting


def test_method_spec_validation():
    with pytest.raises(ValueError):
        MethodSpec(kind="hbvm", s=3, k=2)
    with pytest.raises(ValueError):
        MethodSpec(kind="hbvm", s=3)
    with pytest.raises(ValueError):
        MethodSpec(kind="gauss", s=3, k=5)
    with pytest.raises(ValueError):
        MethodSpec(kind="radau", s=3)
    with pytest.raises(ValueError):
        MethodSpec(kind="gauss", s=0)
    # s and k count stages: a float, NaN or string is rejected here, not in gauss_rule
    for s in (2.5, 3.0, np.nan, "3"):
        with pytest.raises(ValueError, match="^s must be an integer >= 1, got "):
            MethodSpec(kind="gauss", s=s)
    for k in (6.0, 6.5, np.nan, "6"):
        with pytest.raises(ValueError, match="^k must be an integer, got "):
            MethodSpec(kind="hbvm", s=3, k=k)
    assert MethodSpec(kind="hbvm", s=np.int64(3), k=np.int64(6)).n_stages == 6
    # EQUIP(1) has no alpha to tune: it is Gauss(1)
    with pytest.raises(ValueError, match="equip:s=1 has no alpha to tune; use gauss:s=1"):
        MethodSpec(kind="equip", s=1)
    spec = MethodSpec(kind="hbvm", s=3, k=9)
    assert spec.n_stages == 9
    assert spec.order == 6
    assert MethodSpec(kind="equip", s=2).n_stages == 2


def test_build_tableau_dispatch():
    assert build_tableau(MethodSpec("gauss", 3)).spec.kind == "gauss"
    assert build_tableau(MethodSpec("hbvm", 3, 6)).n_stages == 6
    assert build_tableau(MethodSpec("equip", 3), alpha=0.1).alpha == 0.1


@pytest.mark.parametrize("spec", [MethodSpec("gauss", 1), MethodSpec("gauss", 3),
                                  MethodSpec("hbvm", 3, 6)], ids=str)
def test_build_tableau_rejects_alpha_without_effect(spec):
    # only EQUIP has an alpha; a nonzero one elsewhere used to be dropped silently
    with pytest.raises(ValueError, match=f"^alpha has no effect on {spec}; only equip takes it$"):
        build_tableau(spec, alpha=0.5)
    # a zero of either sign is no alpha at all
    assert np.copysign(1.0, build_tableau(spec, alpha=-0.0).alpha) == 1.0


@pytest.mark.parametrize("alpha", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("s", [2, 3, 6])
def test_build_tableau_rejects_a_non_finite_alpha(s, alpha):
    # a NaN alpha used to give a NaN tableau with a NaN symplecticity residual
    with pytest.raises(ValueError, match=f"^alpha must be finite, got alpha={alpha}$"):
        build_equip_tableau(s, alpha)


def test_format_tableau_shape():
    text = format_tableau(build_gauss(2))
    lines = text.splitlines()
    assert len(lines) == 4  # comment, two stage rows, weights row
    assert "|" in lines[1] and "|" in lines[2]
    # 15 significant digits in fixed-point form
    assert "0.25000000000000" in text.replace(" ", "")


def test_tableau_csv_shape():
    text = tableau_csv(build_hbvm(2, 1))
    lines = text.splitlines()
    assert lines[0] == "# method hbvm"
    assert lines[1] == "# s 1"
    assert lines[2] == "# k 2"
    assert lines[3] == "# alpha 0"
    assert len(lines) == 4 + 2 + 1  # headers + stage rows + weights row
    assert lines[-1].startswith(",")
    # round-trip exactness of one entry
    t = build_hbvm(2, 1)
    assert float(lines[4].split(",")[0]) == t.c[0]


@given(t=equip_tableaus(st.floats(-1e3, 1e3)))
@example(t=build_equip_tableau(3, -0.0))
@example(t=build_equip_tableau(3, 5e-324))
def test_equip_tableau_csv_round_trips(t):
    lines = tableau_csv(t).splitlines()
    assert float(lines[3].removeprefix("# alpha ")).hex() == float(t.alpha).hex()
    rows = [[float(x) for x in line.split(",")[1:]] for line in lines[4:]]
    c = [float(line.split(",")[0]) for line in lines[4:-1]]
    # tobytes compares bits, so a -0.0 read back as 0.0 would fail
    assert np.array(rows[:-1]).tobytes() == t.A.tobytes()
    assert np.array(rows[-1]).tobytes() == t.b.tobytes()
    assert np.array(c).tobytes() == t.c.tobytes()
