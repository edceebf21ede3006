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

import numpy as np

from .polar import ManifoldBlock, PolarizationSector

DIRECTION_EPS = 1e-6

MODE_PERP = "perpendicular-restricted"
MODE_FULL = "full-space"
MODE_UNDEFINED = "undefined"


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


def _norms(vectors: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row, as one dot product per row: the same
    arithmetic as np.linalg.norm of the row alone."""
    return np.sqrt((vectors[:, None, :] @ vectors[:, :, None])[:, 0, 0])


def _minimize_variance(gamma: np.ndarray, mean: np.ndarray, spin_scale: np.ndarray):
    """Smallest variance, its direction and the mode of each of n covariances.

    gamma is (n, 3, 3), mean (n, 3) and spin_scale (n,).  A row whose mean
    exceeds DIRECTION_EPS of its scale is minimised over the plane
    perpendicular to the mean, spanned by u = mhat x e and v = mhat x u with e
    the axis least aligned with mhat; every other row over the whole space.
    Each mode is one stacked eigh.
    """
    norm = _norms(mean)
    perp = norm / spin_scale > DIRECTION_EPS
    gamma_min = np.empty(len(mean))
    direction = np.empty_like(mean)

    rows = np.flatnonzero(perp)
    mhat = mean[rows] / norm[rows, None]
    seed = np.zeros_like(mhat)
    seed[np.arange(len(rows)), np.argmin(np.abs(mhat), axis=1)] = 1.0
    u = np.cross(mhat, seed)
    u /= _norms(u)[:, None]
    v = np.cross(mhat, u)
    basis = np.stack([u, v], axis=2)
    reduced = basis.swapaxes(1, 2) @ gamma[rows] @ basis
    values, vectors = np.linalg.eigh(0.5 * (reduced + reduced.swapaxes(1, 2)))
    for i, val, vec, b in zip(rows, values, vectors, basis):
        gamma_min[i], w = _pick_direction(val, vec)
        direction[i] = b @ w

    rows = np.flatnonzero(~perp)
    full = gamma[rows]
    values, vectors = np.linalg.eigh(0.5 * (full + full.swapaxes(1, 2)))
    for i, val, vec in zip(rows, values, vectors):
        gamma_min[i], direction[i] = _pick_direction(val, vec)
    return gamma_min.tolist(), direction, [MODE_PERP if p else MODE_FULL for p in perp]


def _moments(block: ManifoldBlock):
    """Mean Stokes vector and symmetrised second moments <{S_k, S_l}>/2.

    On the basis m_i = S - i the raising operator is S+ |m_i> = c_i |m_i + 1>,
    c_i = sqrt(S(S+1) - m_i(m_i+1)), so every moment sits on the block's
    diagonals 0, -1 and -2:

        <S+> = sum_i c_i rho[i, i-1],   <{Sz, S+}> = sum_i (2 m_i + 1) c_i rho[i, i-1],
        <S+^2> = sum_i c_i c_{i-1} rho[i, i-2],

    with <Sx> + i<Sy> = <S+>, <{Sz, Sx}> + i<{Sz, Sy}> = <{Sz, S+}>,
    <Sx^2 + Sy^2> = S(S+1) - <Sz^2>, <Sx^2 - Sy^2> = Re<S+^2> and
    <{Sx, Sy}> = Im<S+^2>.
    """
    rho = block.block
    spin = block.spin
    m = spin - np.arange(block.dim)
    c = np.sqrt(spin * (spin + 1) - m * (m + 1))
    p = np.diagonal(rho).real
    sz, sz2 = p @ m, p @ m**2
    lower = np.diagonal(rho, -1)
    s_plus = lower @ c[1:]
    zs_plus = lower @ ((2 * m[1:] + 1) * c[1:])
    s_plus2 = np.diagonal(rho, -2) @ (c[2:] * c[1:-1])
    perp = spin * (spin + 1) - sz2
    mean = np.array([s_plus.real, s_plus.imag, sz])
    second = 0.5 * np.array([
        [perp + s_plus2.real, s_plus2.imag, zs_plus.real],
        [s_plus2.imag, perp - s_plus2.real, zs_plus.imag],
        [zs_plus.real, zs_plus.imag, 2.0 * sz2],
    ])
    return mean, second


def manifold_stokes_summary(blocks) -> list[StokesSummary]:
    """Mean Stokes vector, covariance and squeezing degree of each manifold
    block, in order, with the variances of all spin > 0 blocks minimised as
    one stack; a spin-0 block gives the undefined summary."""
    if any(b.negligible for b in blocks):
        raise ValueError("negligible block excluded from squeezing reports")
    spun = [b for b in blocks if b.spin != 0]
    moments = [_moments(b) for b in spun]
    mean = np.array([m for m, _ in moments]).reshape(-1, 3)
    second = np.array([s for _, s in moments]).reshape(-1, 3, 3)
    gamma = second - mean[:, :, None] * mean[:, None, :]
    gamma_min, direction, mode = _minimize_variance(gamma, mean, np.array([b.spin for b in spun]))
    summaries = iter([
        StokesSummary(b.spin, mean[i], gamma[i], gamma_min[i], direction[i],
                      4.0 * gamma_min[i] / b.photon_number, mode[i])
        for i, b in enumerate(spun)
    ])
    return [_undefined_summary(0.0) if b.spin == 0 else next(summaries) for b in blocks]


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
        bm, bs = _moments(b)
        mean += b.weight * bm
        second += b.weight * bs
        mean_photons += b.weight * b.photon_number
    if mean_photons == 0.0:
        return _undefined_summary(0.0)
    gamma = second - np.outer(mean, mean)
    spin_scale = mean_photons / 2.0
    gamma_min, direction, mode = _minimize_variance(
        gamma[None], mean[None], np.array([spin_scale]))
    xi2 = 4.0 * gamma_min[0] / mean_photons
    return StokesSummary(spin_scale, mean, gamma, gamma_min[0], direction[0], xi2, mode[0])


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

