"""Stokes operators per manifold, covariance matrices, and polarization squeezing.

The squeezing degree is xi^2 = 4 gamma_min / N, where gamma_min is the smallest
admissible Stokes variance and the shot-noise reference is the isotropic
perpendicular variance S/2 of a spin coherent state.  When the mean Stokes
vector is appreciable the minimization runs over directions perpendicular to
it; otherwise over the whole space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .fock import _unitary_exp
from .polar import ManifoldBlock, PolarizationSector, _two_spin

DIRECTION_EPS = 1e-6

MODE_PERP = "perpendicular-restricted"
MODE_FULL = "full-space"
MODE_UNDEFINED = "undefined"


@dataclass(frozen=True)
class StokesMatrices:
    """Spin-S matrices of Sx, Sy, Sz on the basis m = S, ..., -S."""

    spin: float
    sx: np.ndarray
    sy: np.ndarray
    sz: np.ndarray

    @property
    def vector(self):
        return (self.sx, self.sy, self.sz)


@lru_cache(maxsize=None)
def stokes_matrices(spin: float) -> StokesMatrices:
    """Standard angular-momentum matrices for half-integer spin."""
    two_j = _two_spin(spin)
    m = spin - np.arange(two_j + 1)  # descending
    sz = np.diag(m.astype(complex))
    raising = np.zeros((two_j + 1, two_j + 1), dtype=complex)
    for i in range(1, two_j + 1):
        # |m_i> -> |m_i + 1> sits one row up in descending order
        raising[i - 1, i] = math.sqrt(spin * (spin + 1) - m[i] * (m[i] + 1))
    lowering = raising.conj().T
    sx = 0.5 * (raising + lowering)
    sy = -0.5j * (raising - lowering)
    for mat in (sx, sy, sz):
        mat.setflags(write=False)
    return StokesMatrices(spin, sx, sy, sz)


def rotation_matrix(spin: float, axis, angle: float) -> np.ndarray:
    """SU(2) rotation exp(-i angle n.S) on the spin-S block."""
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    ops = stokes_matrices(spin)
    gen = axis[0] * ops.sx + axis[1] * ops.sy + axis[2] * ops.sz
    return _unitary_exp(angle * gen)


@dataclass(frozen=True)
class StokesSummary:
    """First and second Stokes moments with the resulting squeezing degree."""

    spin: float          # manifold spin, or <N>/2 for the total state
    mean: np.ndarray
    gamma: np.ndarray
    gamma_min: float
    direction: np.ndarray
    xi2: float
    mode: str

    @property
    def xi2_db(self) -> float:
        if math.isnan(self.xi2):
            return math.nan
        if self.xi2 <= 0.0:
            return -math.inf
        return 10.0 * math.log10(self.xi2)


def _undefined_summary(spin: float) -> StokesSummary:
    return StokesSummary(
        spin=spin,
        mean=np.zeros(3),
        gamma=np.zeros((3, 3)),
        gamma_min=0.0,
        direction=np.array([0.0, 0.0, 1.0]),
        xi2=math.nan,
        mode=MODE_UNDEFINED,
    )


def _pick_direction(values, vectors):
    """Smallest eigenvalue with a deterministic eigenvector choice on ties."""
    tol = 1e-12 * max(1.0, float(np.max(np.abs(values))))
    gamma_min = float(values[0])
    candidates = [vectors[:, i] for i in range(len(values)) if values[i] <= gamma_min + tol]
    best = max(candidates, key=lambda v: tuple(np.abs(v)))
    # fix overall sign for reproducible reports
    lead = np.argmax(np.abs(best) > 1e-12)
    if best[lead].real < 0:
        best = -best
    return gamma_min, np.real(best)


def _minimize_variance(gamma: np.ndarray, mean: np.ndarray, spin_scale: float):
    norm = np.linalg.norm(mean)
    if spin_scale > 0 and norm / spin_scale > DIRECTION_EPS:
        mhat = mean / norm
        seed = np.zeros(3)
        seed[np.argmin(np.abs(mhat))] = 1.0
        u = np.cross(mhat, seed)
        u /= np.linalg.norm(u)
        v = np.cross(mhat, u)
        basis = np.stack([u, v], axis=1)
        reduced = basis.T @ gamma @ basis
        values, vectors = np.linalg.eigh(0.5 * (reduced + reduced.T))
        gamma_min, w = _pick_direction(values, vectors)
        return gamma_min, basis @ w, MODE_PERP
    values, vectors = np.linalg.eigh(0.5 * (gamma + gamma.T))
    gamma_min, direction = _pick_direction(values, vectors)
    return gamma_min, direction, MODE_FULL


def _moments(block: np.ndarray, ops: StokesMatrices):
    vec = ops.vector
    mean = np.array([np.real(np.trace(block @ s)) for s in vec])
    second = np.zeros((3, 3))
    for k in range(3):
        for l in range(k, 3):
            anti = vec[k] @ vec[l] + vec[l] @ vec[k]
            second[k, l] = second[l, k] = 0.5 * np.real(np.trace(block @ anti))
    return mean, second


def manifold_stokes_summary(block: ManifoldBlock) -> StokesSummary:
    """Mean Stokes vector, covariance, and squeezing degree of one manifold."""
    if block.negligible:
        raise ValueError("negligible block excluded from squeezing reports")
    if block.spin == 0:
        return _undefined_summary(0.0)
    ops = stokes_matrices(block.spin)
    mean, second = _moments(block.block, ops)
    gamma = second - np.outer(mean, mean)
    gamma_min, direction, mode = _minimize_variance(gamma, mean, block.spin)
    xi2 = 4.0 * gamma_min / block.photon_number
    return StokesSummary(block.spin, mean, gamma, gamma_min, direction, xi2, mode)


def total_stokes_summary(sector: PolarizationSector, min_captured: float = 0.5) -> StokesSummary:
    """Squeezing of the whole state via weight-averaged Stokes moments.

    First and second moments are accumulated as P_S-weighted block traces and
    the variance is normalized by the mean photon number.
    """
    captured = sector.captured
    if captured <= min_captured:
        raise ValueError(
            f"sector captures only {captured:.6f} of the state; "
            f"need more than {min_captured} (raise the cutoff)"
        )
    mean = np.zeros(3)
    second = np.zeros((3, 3))
    mean_photons = 0.0
    for b in sector.blocks:
        if b.negligible or b.spin == 0:
            continue
        ops = stokes_matrices(b.spin)
        bm, bs = _moments(b.block, ops)
        mean += b.weight * bm
        second += b.weight * bs
        mean_photons += b.weight * b.photon_number
    if mean_photons == 0.0:
        return _undefined_summary(0.0)
    gamma = second - np.outer(mean, mean)
    spin_scale = mean_photons / 2.0
    gamma_min, direction, mode = _minimize_variance(gamma, mean, spin_scale)
    xi2 = 4.0 * gamma_min / mean_photons
    return StokesSummary(spin_scale, mean, gamma, gamma_min, direction, xi2, mode)


def quadrature_estimate_xi2(alpha: float, r: float) -> float:
    """Closed-form squeezing estimate treating the state as one two-mode Gaussian.

    Returns |alpha|^2 e^{-r} / (|alpha|^2 + sinh^2(r)/2).  Reproduces the
    large-alpha quadrature regime but collapses to 0 as alpha -> 0, where the
    manifold-resolved analysis still finds squeezing.
    """
    if r < 0:
        raise ValueError("r must be non-negative")
    denom = abs(alpha) ** 2 + 0.5 * math.sinh(r) ** 2
    if denom == 0.0:
        return 0.0
    return abs(alpha) ** 2 * math.exp(-r) / denom


def gaussian_total_xi2(alpha: float, r: float) -> float:
    """Exact total-state xi^2 of the pure model from Gaussian moments.

    For rho = D_H(alpha) S_H(r)|0><0| x S_V(r)|0><0| (alpha real) the mean spin
    points along z, Sx and Sy are uncorrelated, and their variances are
    Var(Sx) = [alpha^2 e^{-2r} + sinh^2(2r)]/4 and Var(Sy) = alpha^2 e^{+2r}/4.
    At alpha = 0 the mean vanishes and Var(Sz) equals Var(Sx), so in every case
    the minimum is over these two branches; with <N> = alpha^2 + 2 sinh^2 r

        xi^2 = min(alpha^2 e^{-2r} + sinh^2 2r, alpha^2 e^{2r}) / (alpha^2 + 2 sinh^2 r).

    The branches cross at alpha^2 = sinh(2r)/2; xi^2 is 0 at alpha = 0 and
    tends to e^{-2r} at large alpha.
    """
    if r < 0:
        raise ValueError("r must be non-negative")
    a2 = float(alpha) ** 2
    denom = a2 + 2.0 * math.sinh(r) ** 2
    if denom == 0.0:
        return math.nan
    var_x = a2 * math.exp(-2.0 * r) + math.sinh(2.0 * r) ** 2
    var_y = a2 * math.exp(2.0 * r)
    return min(var_x, var_y) / denom

