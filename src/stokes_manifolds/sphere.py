"""SU(2) coherent states, spherical quadrature, and Husimi Q functions.

Coherent-state convention: |S, n> = exp(-i phi Sz) exp(-i theta Sy) |S, S>,
so the overlap amplitudes are
<S, m|S, n> = sqrt(C(2S, S+m)) cos^{S+m}(theta/2) sin^{S-m}(theta/2) e^{-i m phi}.
The Q function of a unit-trace block integrates to 4 pi/(2S+1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .polar import ManifoldBlock, PolarizationSector, _two_spin

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


def su2_overlap_amplitudes(spin: float, theta, phi) -> np.ndarray:
    """Amplitudes <S, m|S, n> for m = S, ..., -S; broadcasts over theta/phi.

    Output shape is (2S+1,) + broadcast shape of theta and phi.
    """
    two_j = _two_spin(spin)
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    k = np.arange(two_j + 1)  # S + m = 2S - index... index i has m = S - i
    up = two_j - k  # exponent S + m
    down = k        # exponent S - m
    log_fact = np.array([math.lgamma(n + 1) for n in range(two_j + 1)])
    log_binom = log_fact[two_j] - log_fact[up] - log_fact[down]
    shape = (two_j + 1,) + np.broadcast_shapes(theta.shape, phi.shape)
    out = np.empty(shape, dtype=complex)
    c = np.cos(theta / 2.0)
    s = np.sin(theta / 2.0)
    m = spin - k
    for i in range(two_j + 1):
        mag = np.exp(0.5 * log_binom[i]) * c ** up[i] * s ** down[i]
        out[i] = mag * np.exp(-1j * m[i] * phi)
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


def husimi_manifold(block: ManifoldBlock, grid: SphereGrid) -> QFunction:
    """Q^(S)(n) = <S, n| rho |S, n> over the grid nodes."""
    needed = 2 * block.photon_number  # bandwidth of |<S,m|S,n>|^2 products
    if grid.exactness < needed:
        raise ValueError(
            f"grid exactness {grid.exactness} too coarse for S={block.spin}; need >= {needed}"
        )
    th, ph = grid.mesh()
    amps = su2_overlap_amplitudes(block.spin, th, ph)
    # a copy, not a view that would keep the complex einsum result alive
    values = np.einsum("imn,ij,jmn->mn", amps.conj(), block.block, amps).real.copy()
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
