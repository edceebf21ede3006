"""SU(2) coherent states, spherical quadrature, and Husimi Q functions.

Coherent-state convention: |S, n> = exp(-i phi Sz) exp(-i theta Sy) |S, S>,
so the overlap amplitudes are
<S, m|S, n> = sqrt(C(2S, S+m)) cos^{S+m}(theta/2) sin^{S-m}(theta/2) e^{-i m phi}.
The Q function of a unit-trace block integrates to 4 pi/(2S+1).

The amplitudes factor as c_i(theta) e^{-i m_i phi} with real c_i, i = S - m_i,
so Q^(S) of a Hermitian block is an azimuthal Fourier series,

    Q^(S)(theta, phi) = Re sum_{q>=0} (2 - delta_q0) e^{i q phi} F_q(theta),
    F_q(theta) = sum_i rho[i, i+q] c_i(theta) c_{i+q}(theta).

A block costs one pass along each of its 2S+1 upper diagonals on the n_theta
Gauss nodes, O((2S+1)^2 n_theta), plus one (n_theta x 2S+1)(2S+1 x n_phi)
product with the e^{i q phi} table; no (2S+1) x n_theta x n_phi amplitude
table is formed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .polar import ManifoldBlock, PolarizationSector

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


def build_quadrature_grid(degree: int) -> SphereGrid:
    """Quadrature grid exact for all spherical harmonics of degree <= `degree`
    and for products of two of them."""
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
    _verify_exactness(theta, phi, weights, degree)
    for arr in (theta, phi, weights):
        arr.setflags(write=False)
    return SphereGrid(theta, phi, weights, degree)


def _verify_exactness(theta, phi, weights, degree):
    # Gauss-Legendre exactness is guaranteed analytically; spot-check the
    # even moments of cos(theta) and the azimuthal DFT null sums.
    x = np.cos(theta)
    w_theta = weights[:, 0] * len(phi) / (2.0 * math.pi) if len(phi) else weights[:, 0]
    for d in range(0, min(2 * degree, 24) + 1, 2):
        got = float(np.sum(w_theta * x**d))
        want = 2.0 / (d + 1)
        if abs(got - want) > 1e-12 * max(1.0, want):
            raise AssertionError(f"quadrature moment x^{d} off by {got - want:.3e}")
    for k in range(1, min(2 * degree, 8) + 1):
        s = np.sum(np.exp(1j * k * phi)) / len(phi)
        if abs(s) > 1e-12:
            raise AssertionError(f"azimuthal sum for frequency {k} is {abs(s):.3e}")


def _coherent_magnitudes(two_j: int, theta: np.ndarray) -> np.ndarray:
    """The real, phi-free factors c_i(theta) of the amplitudes <S, m|S, n>,
    i = S - m, with shape (2S+1,) + theta.shape."""
    k = np.arange(two_j + 1)
    up = two_j - k  # exponent S + m
    down = k        # exponent S - m
    log_fact = np.array([math.lgamma(n + 1) for n in range(two_j + 1)])
    log_binom = log_fact[two_j] - log_fact[up] - log_fact[down]
    out = np.empty((two_j + 1,) + theta.shape)
    c = np.cos(theta / 2.0)
    s = np.sin(theta / 2.0)
    for i in range(two_j + 1):
        out[i] = np.exp(0.5 * log_binom[i]) * c ** up[i] * s ** down[i]
    return out


@dataclass(frozen=True)
class QFunction:
    """Husimi values over a sphere grid, of one manifold (with its spin) or of
    the total state.

    A total Q keeps the manifold Q functions it was summed from in `parts`,
    in spin order, so consumers of the per-manifold maps reuse them.
    """

    grid: SphereGrid
    values: np.ndarray
    spin: float | None = None
    parts: tuple = ()

    def integral(self) -> float:
        return float(self.grid.integrate(self.values))


def husimi_fourier(block: ManifoldBlock, grid: SphereGrid) -> np.ndarray:
    """Rows F_q(theta) = sum_i rho[i, i+q] c_i(theta) c_{i+q}(theta) for
    q = 0..2S on the grid's theta nodes, shape (2S+1, n_theta): one pass
    along each upper diagonal of the block."""
    needed = 2 * block.photon_number  # bandwidth of |<S,m|S,n>|^2 products
    if grid.exactness < needed:
        raise ValueError(
            f"grid exactness {grid.exactness} too coarse for S={block.spin}; need >= {needed}"
        )
    two_j = block.photon_number
    c = _coherent_magnitudes(two_j, grid.theta)  # (2S+1, n_theta)
    f = np.empty((two_j + 1, grid.n_theta), dtype=complex)
    for q in range(two_j + 1):
        f[q] = np.diagonal(block.block, q) @ (c[: two_j + 1 - q] * c[q:])
    return f


def husimi_manifold(block: ManifoldBlock, grid: SphereGrid) -> QFunction:
    """Q^(S)(n) = <S, n| rho |S, n> over the grid nodes, summed as the
    azimuthal Fourier series Re sum_q (2 - delta_q0) e^{iq phi} F_q(theta)."""
    f = husimi_fourier(block, grid)
    f[1:] *= 2.0  # the q < 0 diagonals are the conjugates of the q > 0 ones
    waves = np.exp(1j * np.outer(np.arange(block.dim), grid.phi))  # (2S+1, n_phi)
    values = f.real.T @ waves.real - f.imag.T @ waves.imag
    return QFunction(grid, values, spin=block.spin)


def husimi_total(sector: PolarizationSector, grid: SphereGrid,
                 max_spin: float | None = None) -> QFunction:
    """Intensity-free Q of the whole polarization sector.

    Q(n) = sum_S P_S (2S+1)/(4 pi) Q^(S)(n) over the reported manifolds, so the
    integral equals the captured probability of those manifolds.  The Q^(S)
    are returned as the result's parts.
    """
    blocks = sector.reported(max_spin)
    parts = tuple(husimi_manifold(b, grid) for b in blocks)
    values = np.zeros((grid.n_theta, grid.n_phi))
    for b, q in zip(blocks, parts):
        values += b.weight * (b.dim / FOUR_PI) * q.values
    return QFunction(grid, values, parts=parts)
