"""SU(2) coherent states, spherical quadrature, and Husimi Q functions.

Coherent-state convention: |S, n> = exp(-i phi Sz) exp(-i theta Sy) |S, S>,
so the overlap amplitudes are
<S, m|S, n> = sqrt(C(2S, S+m)) cos^{S+m}(theta/2) sin^{S-m}(theta/2) e^{-i m phi}.
The Q function of a unit-trace block integrates to 4 pi/(2S+1).

The amplitudes factor as c_i(theta) e^{-i m_i phi} with real c_i, i = S - m_i,
so Q^(S) of a Hermitian block is an azimuthal Fourier series,

    Q^(S)(theta, phi) = Re sum_{q>=0} (2 - delta_q0) e^{i q phi} F_q(theta),
    F_q(theta) = sum_i rho[i, i+q] c_i(theta) c_{i+q}(theta).

`husimi_rows` gives the rows F_q of a stack of blocks of one size, the
multipoles' contraction `polar.diagonal_sums` against the table c_i c_{i+q}
on the n_theta Gauss nodes; no (2S+1) x n_theta x n_phi amplitude table is
formed.  The weight 2 - delta_q0 lives in the `fourier_table`, and `husimi_maps`
multiplies each theta node's row of F by it.  Q is linear in the rows, so
`husimi_totals` sums the scaled rows of each sweep layer's live blocks first,
maps them once per amplitude and keeps, of the manifold maps, the equator
rows the ring foliation draws.  The rows are real for a real block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .polar import (
    CONTRACTION_BYTES,
    ManifoldBlock,
    ManifoldLayer,
    PolarizationSector,
    diagonal_order,
    diagonal_sums,
)

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
    """Husimi values over a sphere grid, of one manifold or of the total state.

    A total Q also holds, in `equator`, the Q^(S) of each manifold it sums on
    the grid's equator node (`equator_node`), one row of n_phi values per
    manifold, with the manifold spins in `spins`, in spin order.
    """

    grid: SphereGrid
    values: np.ndarray
    spins: tuple = ()
    equator: np.ndarray | None = None

    def integral(self) -> float:
        return float(self.grid.integrate(self.values))


def _coherent_products(two_j: int, grid: SphereGrid) -> np.ndarray:
    """The table c_i(theta) c_{i+q}(theta) of the real factors c_i of the
    amplitudes <S, m_i|S, n>, a row per theta node of the grid and a column
    per entry (i, i+q) of `polar.diagonal_order`."""
    if grid.exactness < 2 * two_j:  # the bandwidth of |<S,m|S,n>|^2 products
        raise ValueError(f"grid exactness {grid.exactness} too coarse for S={two_j / 2}; "
                         f"need >= {2 * two_j}")
    k = np.arange(two_j + 1)
    log_fact = np.array([math.lgamma(n + 1) for n in range(two_j + 1)])
    half = grid.theta[:, None] / 2.0
    # c[t, i] = c_i(theta_t), with the exponents S + m = 2S - i and S - m = i
    c = (np.exp(0.5 * (log_fact[two_j] - log_fact[two_j - k] - log_fact[k]))
         * np.cos(half) ** (two_j - k) * np.sin(half) ** k)
    order = diagonal_order(two_j + 1)
    table = c[:, order.i_out]
    step = max(CONTRACTION_BYTES // (8 * len(c)), 1)  # c_{i+q} gathered a run at a time
    for start in range(0, len(order.i_in), step):
        table[:, start:start + step] *= c[:, order.i_in[start:start + step]]
    return table


def husimi_rows(blocks: np.ndarray, grid: SphereGrid) -> np.ndarray:
    """Rows F_q(theta) = sum_i rho[i, i+q] c_i(theta) c_{i+q}(theta), q = 0..2S, of a
    stack (n, 2S+1, 2S+1) of spin-S blocks on the grid's theta nodes, as [n, theta, q]:
    one `polar.diagonal_sums` of the stack against one table of coherent products."""
    return diagonal_sums(blocks, _coherent_products(blocks.shape[-1] - 1, grid))


def fourier_table(count: int, grid: SphereGrid) -> tuple:
    """The tables (2 - delta_q0) cos(q phi) and (2 - delta_q0) sin(q phi) at the grid's
    phi nodes, a row per order q < count.  The weight 2 adds the q < 0 terms, which
    conjugate the q > 0 ones, and being a power of 2 it changes no product's bits."""
    angles = np.outer(np.arange(count), grid.phi)
    weight = np.where(np.arange(count) > 0, 2.0, 1.0)[:, None]
    return weight * np.cos(angles), weight * np.sin(angles)


def husimi_maps(rows: np.ndarray, table: tuple) -> np.ndarray:
    """Re sum_q (2 - delta_q0) e^{iq phi} rows[..., q] at the phi nodes, from the orders
    q < rows.shape[-1] of a `fourier_table`: each row is its own vector-matrix product with
    the cosines, and with the sines if complex, so its bits depend only on it, and a
    manifold's equator row in a total is, bit for bit, that row of its map."""
    cos, sin = (t[:rows.shape[-1]] for t in table)
    values = (np.ascontiguousarray(rows.real)[..., None, :] @ cos)[..., 0, :]
    if np.iscomplexobj(rows):
        values -= (np.ascontiguousarray(rows.imag)[..., None, :] @ sin)[..., 0, :]
    return values


def husimi_manifold(block: ManifoldBlock, grid: SphereGrid) -> QFunction:
    """Q^(S)(n) = <S, n| rho |S, n> over the grid nodes: the `husimi_maps` of the
    block's `husimi_rows`, as a stack of one."""
    rows = husimi_rows(block.block[None], grid)[0]
    return QFunction(grid, husimi_maps(rows, fourier_table(block.dim, grid)))


def husimi_totals(layers, count: int, grid: SphereGrid) -> list[QFunction]:
    """The total Q of each of `count` amplitudes from a sweep's `ManifoldLayer`s in
    increasing N.  The rows G_q(theta) = sum_S P_S (2S+1)/(4 pi) F_q^S(theta) are summed
    first, from one `husimi_rows` of each layer's live blocks as stored, whose equator
    rows are mapped as their maps would be; each total is the `husimi_maps` of G, all
    with one `fourier_table`.  The rows, and so the totals, are real if every layer is."""
    live = np.array([layer.live for layer in layers], dtype=bool).reshape(len(layers), count)
    photons = np.array([layer.photons for layer in layers], dtype=int)
    dims = np.where(live, photons[:, None] + 1, 1).max(axis=0, initial=1)  # rows of each total
    dtype = np.result_type(float, *{layer.blocks.dtype for layer in layers})
    totals = np.zeros((count, grid.n_theta, dims.max()), dtype=dtype)
    equators = np.zeros((count, len(layers), grid.n_phi))
    table = fourier_table(dims.max(), grid)
    eq = equator_node(grid)
    for j, (layer, mask) in enumerate(zip(layers, live)):
        dim = layer.photons + 1
        rows = husimi_rows(layer.blocks, grid)  # [n, theta, q]
        equators[mask, j] = husimi_maps(rows[:, eq], table)
        rows *= (layer.weights * (dim / FOUR_PI))[:, None, None]
        totals[mask, :, :dim] += rows
    return [QFunction(grid, husimi_maps(g[:, :dim], table),
                      spins=tuple((photons[mask] / 2.0).tolist()), equator=e[mask])
            for g, e, dim, mask in zip(totals, equators, dims, live.T)]


def husimi_total(sector: PolarizationSector, grid: SphereGrid,
                 max_spin: float | None = None) -> QFunction:
    """Intensity-free Q of the whole polarization sector, sum_S P_S (2S+1)/(4 pi)
    Q^(S)(n) over its manifolds (up to max_spin), so the integral equals their
    captured probability: `husimi_totals` of its blocks, each a layer of one."""
    layers = [ManifoldLayer(b.photon_number, np.array([b.weight]), np.array([True]), b.block[None])
              for b in sector.reported(max_spin)]
    return husimi_totals(layers, 1, grid)[0]
