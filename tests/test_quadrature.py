import mpmath
import numpy as np
import pytest

from geork.quadrature import (
    MAX_NODES,
    gauss_rule,
    legendre_eval,
    vandermonde,
)

# ---------------------------------------------------------------------------
# independent oracles


def classical_legendre(n, x):
    """Reference L_n on [-1, 1], plain recurrence on a scalar."""
    p_prev, p = 1.0, x
    if n == 0:
        return p_prev
    for m in range(2, n + 1):
        p, p_prev = ((2 * m - 1) * x * p - (m - 1) * p_prev) / m, p
    return p


def bisect_legendre_roots(n):
    """All roots of L_n by sign-change bisection on a fine grid."""
    grid = np.linspace(-1.0, 1.0, 2000)
    vals = [classical_legendre(n, x) for x in grid]
    roots = []
    for a, b, fa, fb in zip(grid[:-1], grid[1:], vals[:-1], vals[1:]):
        if fa == 0.0:
            roots.append(a)
            continue
        if fa * fb < 0:
            lo, hi, flo = a, b, fa
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                fm = classical_legendre(n, mid)
                if flo * fm <= 0:
                    hi = mid
                else:
                    lo, flo = mid, fm
            roots.append(0.5 * (lo + hi))
    return np.asarray(roots)


@pytest.fixture(scope="module")
def gram_schmidt_basis():
    """Orthonormal polynomials on [0, 1] built by 50-digit Gram-Schmidt.

    Returns coefficient rows (index j -> monomial coefficients of P_j) as
    mpmath numbers; evaluation must stay in high precision because the
    monomial basis is ill-conditioned at these degrees.
    """
    max_j = 10
    with mpmath.workdps(50):
        basis = []  # coefficient lists in the monomial basis
        for j in range(max_j):
            coeffs = [mpmath.mpf(0)] * (j + 1)
            coeffs[j] = mpmath.mpf(1)  # start from t^j
            for prev in basis:
                # projection coefficient <t^j, prev> via exact monomial moments
                proj = mpmath.mpf(0)
                for a, ca in enumerate(coeffs):
                    for b, cb in enumerate(prev):
                        proj += ca * cb / (a + b + 1)
                coeffs = [c - proj * (prev[i] if i < len(prev) else 0)
                          for i, c in enumerate(coeffs)]
            norm2 = mpmath.mpf(0)
            for a, ca in enumerate(coeffs):
                for b, cb in enumerate(coeffs):
                    norm2 += ca * cb / (a + b + 1)
            coeffs = [c / mpmath.sqrt(norm2) for c in coeffs]
            basis.append(coeffs)
        return basis


def mp_gauss_rule(n, dps=40):
    """n-point Gauss-Legendre rule on [0, 1] as mpmath numbers, to dps digits.

    Newton on the classical L_n from the Chebyshev-like guesses, each root
    computed on its own (no mirroring), in dps + 10 working digits.
    """
    with mpmath.workdps(dps + 10):
        nodes, weights = [], []
        for i in range(n):
            x = mpmath.cos(mpmath.pi * (i + mpmath.mpf(0.75)) / (n + mpmath.mpf(0.5)))
            for _ in range(100):
                p, p_prev = mpmath.mpf(1), mpmath.mpf(0)
                for m in range(1, n + 1):
                    p, p_prev = ((2 * m - 1) * x * p - (m - 1) * p_prev) / m, p
                dp = n * (x * p - p_prev) / (x * x - 1)
                x -= p / dp
                if abs(p / dp) < mpmath.mpf(10) ** (-dps - 5):
                    break
            nodes.append((1 - x) / 2)
            weights.append(1 / ((1 - x * x) * dp * dp))
        return nodes, weights


def eval_poly(coeffs, tau):
    with mpmath.workdps(50):
        t = mpmath.mpf(tau)
        return float(sum(c * t**k for k, c in enumerate(coeffs)))


# ---------------------------------------------------------------------------
# gauss_rule


def test_one_point_rule_is_midpoint():
    rule = gauss_rule(1)
    assert rule.nodes == pytest.approx([0.5])
    assert rule.weights == pytest.approx([1.0])


def test_two_and_three_point_nodes_match_bisection_oracle():
    for n in (2, 3):
        roots = np.sort(0.5 * (bisect_legendre_roots(n) + 1.0))
        np.testing.assert_allclose(gauss_rule(n).nodes, roots, atol=1e-12)


def test_two_point_rule_closed_form():
    rule = gauss_rule(2)
    np.testing.assert_allclose(
        rule.nodes, [0.5 - np.sqrt(3) / 6, 0.5 + np.sqrt(3) / 6], atol=1e-15)
    np.testing.assert_allclose(rule.weights, [0.5, 0.5], atol=1e-15)


def test_three_point_rule_closed_form():
    rule = gauss_rule(3)
    np.testing.assert_allclose(
        rule.nodes, [0.5 - np.sqrt(15) / 10, 0.5, 0.5 + np.sqrt(15) / 10], atol=1e-15)
    np.testing.assert_allclose(rule.weights, [5 / 18, 4 / 9, 5 / 18], atol=1e-15)


@pytest.mark.parametrize("n", list(range(1, 21)))
def test_exactness_degree(n):
    rule = gauss_rule(n)
    for d in range(2 * n):
        exact = 1.0 / (d + 1)
        assert rule.integrate(lambda t: t**d) == pytest.approx(exact, rel=1e-13)
    # degree 2n must fail.  The monomial witness only discriminates for small
    # n (its shifted quadrature error decays factorially: 1.6e-5 at n = 5,
    # 8.5e-8 at n = 7); the squared next basis polynomial is annihilated by
    # the rule at its roots, so it witnesses the precision degree at every n
    # with relative error 1.
    if n <= 5:
        exact = 1.0 / (2 * n + 1)
        assert abs(rule.integrate(lambda t: t ** (2 * n)) - exact) > 1e-6 * exact
    approx = rule.integrate(lambda t: legendre_eval(n + 1, t) ** 2)
    assert abs(approx - 1.0) > 1e-6  # exact value is 1 by orthonormality


@pytest.mark.parametrize("n", [1, 2, 3, 7, 16, 33, 64])
def test_rule_invariants(n):
    rule = gauss_rule(n)
    assert np.all(np.diff(rule.nodes) > 0)
    assert np.all(rule.nodes > 0) and np.all(rule.nodes < 1)
    assert np.all(rule.weights > 0)
    assert abs(rule.weights.sum() - 1.0) <= 1e-14
    # weights mirror exactly by construction; the node reflection costs one
    # rounding of 1 - c in the test expression itself
    np.testing.assert_allclose(rule.nodes, 1.0 - rule.nodes[::-1], atol=5e-16, rtol=0)
    np.testing.assert_array_equal(rule.weights, rule.weights[::-1])


def test_largest_rule_matches_high_precision_oracle():
    # MAX_NODES is the largest rule whose nodes, weights and discrete
    # orthonormality hold near machine precision; measured at n = 64: node
    # error 8.8e-17, weight error 9.3e-14 relative, |W^T Omega W - I| 1.3e-14
    rule = gauss_rule(MAX_NODES)
    nodes, weights = mp_gauss_rule(MAX_NODES)
    with mpmath.workdps(50):
        node_err = max(abs(mpmath.mpf(float(a)) - b) for a, b in zip(rule.nodes, nodes))
        weight_err = max(abs(mpmath.mpf(float(a)) / b - 1) for a, b in zip(rule.weights, weights))
    assert node_err <= 1e-15
    assert weight_err <= 1e-12
    W = vandermonde(rule, MAX_NODES)
    G = W.T @ np.diag(rule.weights) @ W
    assert np.abs(G - np.eye(MAX_NODES)).max() <= 1e-13


def test_rule_rejects_bad_counts():
    with pytest.raises(ValueError):
        gauss_rule(0)
    with pytest.raises(ValueError):
        gauss_rule(MAX_NODES + 1)


def test_rule_arrays_are_immutable():
    rule = gauss_rule(4)
    with pytest.raises(ValueError):
        rule.nodes[0] = 0.0


# ---------------------------------------------------------------------------
# legendre_eval


def test_first_polynomial_is_one():
    for tau in (0.0, 0.3, 1.0):
        assert legendre_eval(1, tau) == 1.0


def test_second_polynomial_values():
    assert legendre_eval(2, 0.5) == pytest.approx(0.0, abs=1e-15)
    assert legendre_eval(2, 1.0) == pytest.approx(np.sqrt(3), rel=1e-15)


def test_third_polynomial_midpoint():
    assert legendre_eval(3, 0.5) == pytest.approx(-np.sqrt(5) / 2, rel=1e-15)


def test_eval_matches_gram_schmidt_oracle(gram_schmidt_basis):
    rng = np.random.default_rng(42)
    taus = rng.uniform(0.0, 1.0, size=200)
    for j, coeffs in enumerate(gram_schmidt_basis, start=1):
        want = np.array([eval_poly(coeffs, t) for t in taus])
        got = legendre_eval(j, taus)
        np.testing.assert_allclose(got, want, atol=1e-11, rtol=1e-11)


def test_eval_rejects_bad_index():
    with pytest.raises(ValueError):
        legendre_eval(0, 0.5)


def test_orthonormality_by_quadrature():
    rule = gauss_rule(24)
    for i in range(1, 13):
        for j in range(i, 13):
            val = rule.integrate(lambda t: legendre_eval(i, t) * legendre_eval(j, t))
            assert val == pytest.approx(1.0 if i == j else 0.0, abs=1e-12)


# ---------------------------------------------------------------------------
# vandermonde


def test_vandermonde_one_node():
    np.testing.assert_array_equal(vandermonde(gauss_rule(1), 1), [[1.0]])


def test_vandermonde_two_nodes_closed_form():
    W = vandermonde(gauss_rule(2), 2)
    np.testing.assert_allclose(W, [[1.0, -1.0], [1.0, 1.0]], atol=1e-14)


def test_vandermonde_first_column_is_ones():
    for n in (1, 3, 8):
        W = vandermonde(gauss_rule(n), min(n + 1, 4))
        np.testing.assert_array_equal(W[:, 0], np.ones(n))


def test_vandermonde_rejects_too_many_columns():
    rule = gauss_rule(3)
    vandermonde(rule, 4)  # n_nodes + 1 is the cap
    with pytest.raises(ValueError):
        vandermonde(rule, 5)
    with pytest.raises(ValueError):
        vandermonde(rule, 0)


@pytest.mark.parametrize("k,s", [(4, 3), (8, 5), (12, 4)])
def test_discrete_orthonormality(k, s):
    # quadrature exactness makes W^T Omega W the identity when k >= s + 1
    rule = gauss_rule(k)
    W = vandermonde(rule, s + 1)
    G = W.T @ np.diag(rule.weights) @ W
    np.testing.assert_allclose(G, np.eye(s + 1), atol=1e-12)
