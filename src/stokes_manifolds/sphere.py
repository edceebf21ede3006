"""SU(2) coherent states, spherical quadrature, and Husimi Q functions.

Coherent-state convention: |S, n> = exp(-i phi Sz) exp(-i theta Sy) |S, S>,
so the overlap amplitudes are
<S, m|S, n> = sqrt(C(2S, S+m)) cos^{S+m}(theta/2) sin^{S-m}(theta/2) e^{-i m phi}.
The Q function of a unit-trace block integrates to 4 pi/(2S+1).

The amplitudes factor as c_i(theta) e^{-i m_i phi} with real c_i, i = S - m_i,
so Q^(S) of a Hermitian block is an azimuthal Fourier series,

    Q^(S)(theta, phi) = Re sum_{q>=0} (2 - delta_q0) e^{i q phi} F_q(theta),
    F_q(theta) = sum_i rho[i, i+q] c_i(theta) c_{i+q}(theta).

The rows F_q of a block take one gather of its upper triangle in
diagonal-major order and one segmented sum, O((2S+1)^2 n_theta) on the n_theta
Gauss nodes; no (2S+1) x n_theta x n_phi amplitude table is formed.  A
manifold map adds one (n_theta x 2S+1)(2S+1 x n_phi) product with the
e^{i q phi} table.  The total Q is linear in the rows, so it sums the weighted
rows of every reported manifold first and makes one such product for the
whole sector; of the manifold maps it keeps only the one equator row that the
ring foliation draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .polar import ManifoldBlock, PolarizationSector, diagonal_order

FOUR_PI = 4.0 * math.pi


@dataclass(frozen=True)
class SphereGrid:
    """Tensor grid on S^2: Gauss-Legendre in cos(theta), uniform in phi.

    `exactness` is the largest spherical-harmonic bandwidth integrated exactly.
    Node counts are chosen so that products of two harmonics of degree up to
    `exactness` are also integrated exactly (no azimuthal aliasing).
    """

    theta: np.ndarray
    phi: np.ndarray
    weights: np.ndarray  # (n_theta, n_phi)
    exactness: int

    @property
    def n_theta(self) -> int:
        return len(self.theta)

    @property
    def n_phi(self) -> int:
        return len(self.phi)

    def mesh(self):
        return np.meshgrid(self.theta, self.phi, indexing="ij")

    def integrate(self, values: np.ndarray) -> float | complex:
        return np.sum(self.weights * values)


@lru_cache(maxsize=8)
def build_quadrature_grid(degree: int) -> SphereGrid:
    """Quadrature grid exact for all spherical harmonics of degree <= `degree`
    and for products of two of them; read-only, and built once per degree
    while it stays among the eight most recently used."""
    if degree < 0:
        raise ValueError("degree must be non-negative")
    n_theta = degree + 1
    n_phi = 2 * degree + 1
    x, w = np.polynomial.legendre.leggauss(n_theta)
    order = np.argsort(-x)  # theta ascending, top row theta = 0
    theta = np.arccos(x[order])
    w_theta = w[order]
    phi = 2.0 * math.pi * np.arange(n_phi) / n_phi
    weights = np.outer(w_theta, np.full(n_phi, 2.0 * math.pi / n_phi))
    for arr in (theta, phi, weights):
        arr.setflags(write=False)
    return SphereGrid(theta, phi, weights, degree)


def _coherent_magnitudes(two_j: int, theta: np.ndarray) -> np.ndarray:
    """The real, phi-free factors c_i(theta) of the amplitudes <S, m|S, n>,
    i = S - m, with shape (2S+1,) + theta.shape."""
    k = np.arange(two_j + 1)
    log_fact = np.array([math.lgamma(n + 1) for n in range(two_j + 1)])
    log_binom = log_fact[two_j] - log_fact[two_j - k] - log_fact[k]
    k = k.reshape((-1,) + (1,) * np.ndim(theta))
    # exponents S + m = 2S - i and S - m = i
    return (np.exp(0.5 * log_binom).reshape(k.shape)
            * np.cos(theta / 2.0) ** (two_j - k) * np.sin(theta / 2.0) ** k)


def equator_node(grid: SphereGrid) -> int:
    """Index of the grid's theta node nearest to the equator, theta = pi/2."""
    return int(nearest_theta_node(grid.theta, 0.5 * math.pi))


def nearest_theta_node(theta_nodes: np.ndarray, theta) -> np.ndarray:
    """Index of the theta node nearest to each theta; a tie goes to the
    larger node."""
    ti = np.searchsorted(theta_nodes, theta)
    ti = np.clip(ti, 1, len(theta_nodes) - 1)
    left = theta_nodes[ti - 1]
    right = theta_nodes[ti]
    return np.where(theta - left < right - theta, ti - 1, ti)


@dataclass(frozen=True)
class QFunction:
    """Husimi values over a sphere grid, of one manifold (with its spin) or of
    the total state.

    A total Q also holds, in `equator`, the Q^(S) of each manifold it sums on
    the grid's equator node (`equator_node`), one row of n_phi values per
    manifold, with the manifold spins in `spins`, in spin order.
    """

    grid: SphereGrid
    values: np.ndarray
    spin: float | None = None
    spins: tuple = ()
    equator: np.ndarray | None = None

    def integral(self) -> float:
        return float(self.grid.integrate(self.values))


def husimi_fourier(block: ManifoldBlock, grid: SphereGrid) -> np.ndarray:
    """Rows F_q(theta) = sum_i rho[i, i+q] c_i(theta) c_{i+q}(theta) for
    q = 0..2S on the grid's theta nodes, shape (2S+1, n_theta): one gather of
    the block's upper triangle in diagonal-major order and one segmented sum
    over each diagonal."""
    needed = 2 * block.photon_number  # bandwidth of |<S,m|S,n>|^2 products
    if grid.exactness < needed:
        raise ValueError(
            f"grid exactness {grid.exactness} too coarse for S={block.spin}; need >= {needed}"
        )
    c = _coherent_magnitudes(block.photon_number, grid.theta)  # (2S+1, n_theta)
    order = diagonal_order(block.dim)
    products = c[order.i_out]
    products *= c[order.i_in]
    terms = block.block.ravel()[order.pairs][:, None] * products
    return np.add.reduceat(terms, order.starts, axis=0)


def _fourier_sum(f: np.ndarray, waves: np.ndarray) -> np.ndarray:
    """Re sum_q e^{iq phi} f[q] for each column of f, one row of n_phi values
    per column: one product with the e^{iq phi} table `waves`."""
    return f.real.T @ waves.real - f.imag.T @ waves.imag


def _waves(orders: int, phi: np.ndarray) -> np.ndarray:
    """The table e^{iq phi} for q = 0..orders-1, shape (orders, n_phi)."""
    return np.exp(1j * np.outer(np.arange(orders), phi))


def husimi_manifold(block: ManifoldBlock, grid: SphereGrid) -> QFunction:
    """Q^(S)(n) = <S, n| rho |S, n> over the grid nodes, summed as the
    azimuthal Fourier series Re sum_q (2 - delta_q0) e^{iq phi} F_q(theta)."""
    f = husimi_fourier(block, grid)
    f[1:] *= 2.0  # the q < 0 diagonals are the conjugates of the q > 0 ones
    return QFunction(grid, _fourier_sum(f, _waves(block.dim, grid.phi)), spin=block.spin)


def husimi_total(sector: PolarizationSector, grid: SphereGrid,
                 max_spin: float | None = None) -> QFunction:
    """Intensity-free Q of the whole polarization sector.

    Q(n) = sum_S P_S (2S+1)/(4 pi) Q^(S)(n) over the reported manifolds, so the
    integral equals the captured probability of those manifolds.  The Fourier
    rows of the manifolds are summed first,
    G_q(theta) = sum_S P_S (2S+1)/(4 pi) (2 - delta_q0) F_q^S(theta), and the
    map is one product of G with the e^{iq phi} table.  The manifolds' rows at
    the equator node give the result's `equator`.
    """
    blocks = sector.reported(max_spin)
    orders = max((b.dim for b in blocks), default=1)
    eq = equator_node(grid)
    total = np.zeros((orders, grid.n_theta), dtype=complex)
    equator = np.zeros((orders, len(blocks)), dtype=complex)
    for i, b in enumerate(blocks):
        f = husimi_fourier(b, grid)
        f[1:] *= 2.0
        equator[: b.dim, i] = f[:, eq]
        f *= b.weight * (b.dim / FOUR_PI)
        total[: b.dim] += f
    waves = _waves(orders, grid.phi)
    return QFunction(grid, _fourier_sum(total, waves), spins=tuple(b.spin for b in blocks),
                     equator=_fourier_sum(equator, waves))
