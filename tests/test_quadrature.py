"""Quadrature exactness against closed-form monomial integrals.

On the reference triangle int x^a y^b = a! b! / (a+b+2)!; with weights
normalised to the reference area the rule must reproduce 2 * that value.
"""

from math import factorial

import numpy as np
import pytest
from scipy.special import roots_jacobi, roots_legendre

from afemflux.quadrature import (_GAUSS_JACOBI, _GAUSS_LEGENDRE, _gauss,
                                 edge_rule, triangle_rule)

MAX_DEGREE = 31  # n = 1..16 tabulated points


@pytest.mark.parametrize("degree", range(MAX_DEGREE + 1))
def test_triangle_rule_exact(degree):
    rule = triangle_rule(degree)
    assert (rule.weights > 0).all()
    assert rule.weights.sum() == pytest.approx(1.0, abs=1e-14)
    assert rule.degree >= degree
    x, y = rule.points[:, 0], rule.points[:, 1]
    for a in range(degree + 1):
        for b in range(degree + 1 - a):
            exact = 2.0 * factorial(a) * factorial(b) / factorial(a + b + 2)
            got = float(np.sum(rule.weights * x ** a * y ** b))
            assert got == pytest.approx(exact, rel=1e-13, abs=1e-15), (a, b)


def test_barycentric_consistency():
    rule = triangle_rule(6)
    assert np.allclose(rule.bary.sum(axis=1), 1.0, atol=1e-14)
    assert np.allclose(rule.bary[:, 1], rule.points[:, 0])
    assert np.allclose(rule.bary[:, 2], rule.points[:, 1])
    assert (rule.bary > 0).all()


@pytest.mark.parametrize("degree", range(MAX_DEGREE + 1))
def test_edge_rule_exact(degree):
    rule = edge_rule(degree)
    assert (rule.weights > 0).all()
    assert rule.weights.sum() == pytest.approx(1.0, abs=1e-14)
    assert rule.degree >= degree
    for a in range(degree + 1):
        got = float(np.sum(rule.weights * rule.points ** a))
        assert got == pytest.approx(1.0 / (a + 1), rel=1e-13), a


def test_invalid_degree():
    with pytest.raises(ValueError):
        triangle_rule(-1)
    with pytest.raises(ValueError):
        edge_rule(-2)
    for rule in (triangle_rule, edge_rule):
        with pytest.raises(ValueError, match=r"0\.\.31, got 32"):
            rule(MAX_DEGREE + 1)


@pytest.mark.parametrize("n", range(1, 17))
def test_tables_agree_with_scipy(n):
    """The tables hold scipy.special's rules; within 4 ulps, so that a later
    scipy that moves a last bit does not fail here.  Nodes lie in [-1, 1]
    and are compared in ulps of 1, weights in their own ulps."""
    for table, (x, w) in ((_GAUSS_JACOBI, roots_jacobi(n, 1.0, 0.0)),
                          (_GAUSS_LEGENDRE, roots_legendre(n))):
        nodes, weights = _gauss(table, n)
        assert nodes.shape == weights.shape == (n,)
        assert np.all(np.abs(nodes - x) <= 4 * np.spacing(1.0))
        assert np.all(np.abs(weights - w) <= 4 * np.spacing(w))
