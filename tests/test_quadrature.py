import numpy as np
import numpy.testing as npt
import pytest

from rslimits import quadrature as qd


def gaussian_moment(k):
    # E[Z^k] for Z ~ N(0,1): (k-1)!! for even k, 0 for odd
    if k % 2 == 1:
        return 0.0
    out = 1.0
    for j in range(1, k, 2):
        out *= j
    return out


@pytest.mark.parametrize("n", [1, 5, 21, 63])
def test_gauss_hermite_polynomial_exactness(n):
    nodes, w = qd.gauss_hermite(n).nodes_weights(1)
    z = nodes[:, 0]
    for k in range(2 * n):
        # error relative to the absolute-moment scale (odd moments vanish by
        # cancellation of huge terms, so a bare atol is meaningless there)
        scale = max(1.0, float(np.sum(w * np.abs(z) ** k)))
        err = abs(np.sum(w * z**k) - gaussian_moment(k))
        assert err <= 1e-10 * scale


def test_tensor_grid_2d():
    nodes, w = qd.gauss_hermite(21).nodes_weights(2)
    assert nodes.shape == (441, 2)
    npt.assert_allclose(w.sum(), 1.0, rtol=1e-12)
    # mixed moment E[z1^2 z2^4] = 1 * 3
    npt.assert_allclose(np.sum(w * nodes[:, 0]**2 * nodes[:, 1]**4), 3.0, atol=1e-10)


def test_monte_carlo_counter_based_reproducibility():
    scheme = qd.monte_carlo(1000, seed=7)
    n1, w1 = scheme.nodes_weights(3)
    # interleave another scheme; the draw must not depend on call order
    qd.monte_carlo(50, seed=99).nodes_weights(2)
    n2, w2 = scheme.nodes_weights(3)
    npt.assert_array_equal(n1, n2)
    npt.assert_array_equal(w1, w2)


def test_default_policy():
    assert qd.default_scheme(1).kind == qd.GAUSS_HERMITE
    assert qd.default_scheme(2).nodes_per_dim == 63
    assert qd.default_scheme(3).nodes_per_dim == 21
    scheme4 = qd.default_scheme(4)
    assert scheme4.kind == qd.MONTE_CARLO
    assert scheme4.sample_count == 1_000_000
    # every default fits the node bound at its dimension
    for d in range(1, 9):
        assert qd.default_scheme(d).node_count(d) <= qd.MAX_NODES


def test_node_count_matches_nodes_built():
    for scheme, dim in ((qd.gauss_hermite(7), 3), (qd.monte_carlo(123, seed=1), 5)):
        assert scheme.node_count(dim) == scheme.nodes_weights(dim)[0].shape[0]


def test_largest_gauss_hermite_rule_is_valid():
    _, w = qd.gauss_hermite(qd.MAX_GH_NODES_PER_DIM).nodes_weights(1)
    assert np.all(np.isfinite(w)) and np.all(w >= 0)
    npt.assert_allclose(w.sum(), 1.0, rtol=1e-12)


def test_invalid_schemes():
    with pytest.raises(ValueError):
        qd.QuadratureScheme("gauss-hermite")
    with pytest.raises(ValueError):
        qd.QuadratureScheme("monte-carlo", sample_count=10)  # missing seed
    with pytest.raises(ValueError):
        qd.QuadratureScheme("trapezoid", nodes_per_dim=5)
    with pytest.raises(ValueError, match="nodes_per_dim <= 300"):
        qd.gauss_hermite(qd.MAX_GH_NODES_PER_DIM + 1)
