"""Quadrature schemes for expectations over standard Gaussian noise.

Two kinds are supported:

* tensorized Gauss-Hermite grids (deterministic; exact for polynomials of
  degree <= 2*nodes - 1 per dimension),
* seeded Monte Carlo backed by the counter-based Philox generator, so a
  scheme always reproduces the same node set no matter how calls interleave.

Tensor grids explode exponentially with the dimension, hence the default
policy: 63 nodes/dim for d <= 2, 21 nodes/dim for d = 3, Monte Carlo with
1e6 samples for d >= 4.  A scheme's node count at a dimension is known
before any node is built (:meth:`QuadratureScheme.node_count`), so a caller
can refuse one above ``MAX_NODES`` up front.
"""

from dataclasses import dataclass

import numpy as np

GAUSS_HERMITE = "gauss-hermite"
MONTE_CARLO = "monte-carlo"

# most nodes a scheme may have at the dimension it is used at: at d = 4 the
# nodes and weights then take 160 MB (a 63-node tensor grid there has 1.6e7)
MAX_NODES = 4_000_000
# numpy's hermgauss returns NaN weights from about 380 nodes on
MAX_GH_NODES_PER_DIM = 300


@dataclass(frozen=True)
class QuadratureScheme:
    """Recipe for E_W[...] with W ~ N(0, I_d).

    kind: "gauss-hermite" or "monte-carlo"
    nodes_per_dim: Gauss-Hermite nodes per dimension (GH only)
    sample_count: number of draws (Monte Carlo only)
    seed: Philox key (Monte Carlo only)
    """

    kind: str
    nodes_per_dim: int | None = None
    sample_count: int | None = None
    seed: int | None = None

    def __post_init__(self):
        if self.kind == GAUSS_HERMITE:
            if not self.nodes_per_dim or self.nodes_per_dim < 1:
                raise ValueError("gauss-hermite scheme needs nodes_per_dim >= 1")
            if self.nodes_per_dim > MAX_GH_NODES_PER_DIM:
                raise ValueError(f"gauss-hermite scheme needs nodes_per_dim <= {MAX_GH_NODES_PER_DIM}, "
                                 f"got {self.nodes_per_dim}")
        elif self.kind == MONTE_CARLO:
            if not self.sample_count or self.sample_count < 1:
                raise ValueError("monte-carlo scheme needs sample_count >= 1")
            if self.seed is None:
                raise ValueError("monte-carlo scheme needs a seed")
        else:
            raise ValueError(f"unknown quadrature kind {self.kind!r}")

    def node_count(self, dim):
        """Number of nodes at dimension ``dim``, without building them.

        This is the full rule's size (n^dim for Gauss-Hermite), not the size of
        the floored grid the channel kernel sums over: the CLI refuses a
        scheme above ``MAX_NODES`` on this count."""
        if self.kind == GAUSS_HERMITE:
            return self.nodes_per_dim ** dim
        return self.sample_count

    def nodes_weights(self, dim):
        """Return (nodes, weights): nodes (M, dim), weights (M,) summing to 1.

        This is the exact rule.  The channel kernel sums over a floored view
        of a Gauss-Hermite grid instead, without its nodes of weight <= 1e-20
        (``channel.GH_WEIGHT_FLOOR``)."""
        if self.kind == GAUSS_HERMITE:
            return _tensor_gauss_hermite(self.nodes_per_dim, dim)
        rng = np.random.Generator(np.random.Philox(key=self.seed))
        nodes = rng.standard_normal((self.sample_count, dim))
        weights = np.full(self.sample_count, 1.0 / self.sample_count)
        return nodes, weights


def gauss_hermite(nodes_per_dim):
    return QuadratureScheme(GAUSS_HERMITE, nodes_per_dim=nodes_per_dim)


def monte_carlo(sample_count, seed=0):
    return QuadratureScheme(MONTE_CARLO, sample_count=sample_count, seed=seed)


def default_scheme(dim, seed=0):
    """Default quadrature policy for a d-dimensional Gaussian expectation."""
    if dim <= 2:
        return gauss_hermite(63)
    if dim == 3:
        return gauss_hermite(21)
    return monte_carlo(1_000_000, seed=seed)


def gh_nodes_1d(n):
    """Probabilists' Gauss-Hermite rule: nodes/weights for E over N(0,1)."""
    x, w = np.polynomial.hermite.hermgauss(n)
    return np.sqrt(2.0) * x, w / np.sqrt(np.pi)


def _tensor_gauss_hermite(n, dim):
    z, w = gh_nodes_1d(n)
    if dim == 1:
        nodes, weights = z[:, None], w
    else:
        grids = np.meshgrid(*([z] * dim), indexing="ij")
        nodes = np.stack([g.ravel() for g in grids], axis=1)
        weights = w
        for _ in range(dim - 1):
            weights = np.multiply.outer(weights, w)
        weights = weights.ravel()
    return nodes, weights
