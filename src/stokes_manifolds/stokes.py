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

from .fock import ModeState
from .polar import ManifoldBlock, convolve, diagonal_order, photon_weights

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
    return StokesSummary(spin, np.zeros(3), np.zeros((3, 3)), 0.0, np.array([0.0, 0.0, 1.0]),
                         math.nan, MODE_UNDEFINED)


def _pick_directions(values: np.ndarray, vectors: np.ndarray):
    """Smallest eigenvalue of each of n rows and its eigenvector, chosen the
    same way on ties.

    values (n, k) ascend and column i of vectors (n, k, k) belongs to values
    [:, i].  The eigenvalues within 1e-12 max(1, max |lambda|) of a row's
    smallest tie; of the tied columns the row takes the one whose |components|
    are largest in lexicographic order, the first of equals, so an untied row
    takes column 0.  The sign makes the first component above 1e-12 in
    magnitude positive, for reproducible reports.
    """
    tol = 1e-12 * np.maximum(1.0, np.max(np.abs(values), axis=1, initial=0.0))
    tied = values <= values[:, :1] + tol[:, None]
    pick = np.zeros(len(values), dtype=int)
    rows = np.flatnonzero(tied[:, 1:].any(axis=1))
    if rows.size:
        alive = tied[rows]
        for component in np.abs(vectors[rows]).swapaxes(0, 1):  # (rows, columns) each
            size = np.where(alive, component, -np.inf)
            alive &= size == size.max(axis=1, keepdims=True)
        pick[rows] = np.argmax(alive, axis=1)
    every = np.arange(len(values))
    best = vectors[every, :, pick]
    lead = np.argmax(np.abs(best) > 1e-12, axis=1)
    best[best[every, lead] < 0] *= -1.0
    return values[:, 0], best


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
    Each mode is one stacked eigh and one `_pick_directions`.
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
    gamma_min[rows], w = _pick_directions(
        *np.linalg.eigh(0.5 * (reduced + reduced.swapaxes(1, 2))))
    direction[rows] = (basis @ w[:, :, None])[:, :, 0]

    rows = np.flatnonzero(~perp)
    full = gamma[rows]
    gamma_min[rows], direction[rows] = _pick_directions(
        *np.linalg.eigh(0.5 * (full + full.swapaxes(1, 2))))
    return gamma_min.tolist(), direction, [MODE_PERP if p else MODE_FULL for p in perp]


def _stokes_moments(casimir, sz, sz2, s_plus, zs_plus, s_plus2):
    """Mean Stokes vectors (n, 3) and symmetrised second moments
    <{S_k, S_l}>/2 (n, 3, 3) from the n values each of <S(S+1)>, <Sz>,
    <Sz^2>, <S+>, <{Sz, S+}> and <S+^2>, with
    <Sx> + i<Sy> = <S+>, <{Sz, Sx}> + i<{Sz, Sy}> = <{Sz, S+}>,
    <Sx^2 + Sy^2> = <S(S+1)> - <Sz^2>, <Sx^2 - Sy^2> = Re<S+^2> and
    <{Sx, Sy}> = Im<S+^2>."""
    perp = casimir - sz2
    mean = np.stack([s_plus.real, s_plus.imag, sz], axis=-1)
    second = np.empty(mean.shape + (3,))
    second[:, 0, 0] = perp + s_plus2.real
    second[:, 1, 1] = perp - s_plus2.real
    second[:, 2, 2] = 2.0 * sz2
    second[:, 0, 1] = second[:, 1, 0] = s_plus2.imag
    second[:, 0, 2] = second[:, 2, 0] = zs_plus.real
    second[:, 1, 2] = second[:, 2, 1] = zs_plus.imag
    second *= 0.5
    return mean, second


def moment_stack(two_s: int, blocks: np.ndarray):
    """Mean Stokes vectors (n, 3) and symmetrised second moments (n, 3, 3) of
    a stack (n, 2S+1, 2S+1) of spin-S blocks.

    On the basis m_i = S - i the raising operator is S+ |m_i> = c_i |m_i + 1>,
    c_i = sqrt(S(S+1) - m_i(m_i+1)), so every moment sits on the block's
    diagonals 0, -1 and -2:

        <S+> = sum_i c_i rho[i, i-1],   <{Sz, S+}> = sum_i (2 m_i + 1) c_i rho[i, i-1],
        <S+^2> = sum_i c_i c_{i-1} rho[i, i-2],

    with the weights m_i, m_i^2, c_i, (2 m_i + 1) c_i and c_i c_{i-1} read
    from the block size's cached `diagonal_order`.  Each sum is one dot
    product per block (np.vecdot), so a block's moments do not depend on the
    stack it is in.
    """
    spin = two_s / 2.0
    ladder = diagonal_order(two_s + 1)
    p = np.diagonal(blocks, 0, 1, 2).real
    lower = np.diagonal(blocks, -1, 1, 2)
    return _stokes_moments(
        spin * (spin + 1), np.vecdot(p, ladder.m), np.vecdot(p, ladder.m2),
        np.vecdot(ladder.c, lower), np.vecdot(ladder.zc, lower),
        np.vecdot(ladder.cc, np.diagonal(blocks, -2, 1, 2)),
    )


def _moments(block: ManifoldBlock):
    """Mean Stokes vector and symmetrised second moments of one block:
    `moment_stack` on a stack of one."""
    mean, second = moment_stack(block.photon_number, block.block[None])
    return mean[0], second[0]


def stokes_summaries(spins, mean: np.ndarray, second: np.ndarray) -> list[StokesSummary]:
    """Summary of each row of n means (n, 3) and second moments (n, 3, 3) at
    the given spins, with xi^2 = 4 gamma_min / N, N = 2S, and the variances of
    every row of spin > 0 minimised as one stack; a row of spin 0 (the vacuum
    manifold, or a total with no manifold above the weight floor) gives the
    undefined summary."""
    spins = list(spins)
    gamma = second - mean[:, :, None] * mean[:, None, :]
    rows = [i for i, s in enumerate(spins) if s != 0]
    gamma_min, direction, mode = _minimize_variance(
        gamma[rows], mean[rows], np.array([spins[i] for i in rows]))
    summaries = [_undefined_summary(0.0) if s == 0 else None for s in spins]
    for k, i in enumerate(rows):
        s = spins[i]
        summaries[i] = StokesSummary(s, mean[i], gamma[i], gamma_min[k], direction[k],
                                     4.0 * gamma_min[k] / (2.0 * s), mode[k])
    return summaries


def manifold_stokes_summary(blocks) -> list[StokesSummary]:
    """Mean Stokes vector, covariance and squeezing degree of each manifold
    block, in order: `moment_stack` on a stack of one per block, and one
    `stokes_summaries`; a spin-0 block gives the undefined summary."""
    moments = [_moments(b) for b in blocks]
    mean = np.array([m for m, _ in moments]).reshape(-1, 3)
    second = np.array([s for _, s in moments]).reshape(-1, 3, 3)
    return stokes_summaries([b.spin for b in blocks], mean, second)


def _ladder_diagonal(entries: np.ndarray, k: int) -> np.ndarray:
    """<n| rho a^dag^k |n> for k >= 0 and <n| rho a^|k| |n> for k < 0 over
    n = 0..cutoff, of a mode or of each mode of a stack (..., c+1, c+1):
    diagonal k of rho times sqrt((i+1)...(i+|k|)), i = 0, 1, ..."""
    size = entries.shape[-1]
    i = np.arange(size - abs(k))
    steps = i[:, None] + np.arange(1, abs(k) + 1)
    values = np.diagonal(entries, k, -2, -1) * np.sqrt(np.prod(steps, axis=1))
    return np.pad(values, [(0, 0)] * (values.ndim - 1) + [(max(-k, 0), max(k, 0))])


def diagonal_moments(modes, rho_v: ModeState, top: int = 0):
    """(weights, live, spins, means (r, 3), second moments (r, 3, 3)) of
    rho_H (x) rho_V for n H modes that share rho_V, from the mode diagonals:
    `photon_weights`, then for `stokes_summaries` a row per manifold
    N = 1..top above the weight floor, amplitude-major, and one per whole
    state, at half its mean photon number.  Every Stokes operator keeps N
    fixed, so under the Schwinger map S+ = a_H^dag a_V, Sz = (n_H - n_V)/2
    each moment of manifold N, times P_N, is a convolution of mode diagonals:
    <S+^k>_N P_N = (h_k * v_k)[N], h_k[n] = <n|rho_H a^dag^k|n> and
    v_k[n] = <n|rho_V a^k|n>; <{Sz, S+}> = <S+ (2 Sz + 1)>, <Sz> and <Sz^2>
    weight p_H * p_V by n_H - n_V, <Sz> as (n p_H * p_V - n p_V * p_H)/2, exactly 0
    for equal modes.  A manifold's row is its nine convolutions over P_N; a
    whole state's, their sum."""
    for rho_h in modes:
        captured = rho_h.trace * rho_v.trace
        if captured <= 0.5:
            raise ValueError(f"the modes keep only {captured:.6f} of the state, "
                             "not more than 0.5; raise the cutoff")
    h = np.stack([rho_h.entries for rho_h in modes])
    weights, live = photon_weights(h, rho_v.entries)
    n_h, n_v = np.arange(h.shape[-1]), np.arange(rho_v.cutoff + 1)
    p_h, p_v = np.diagonal(h, 0, 1, 2).real, np.diagonal(rho_v.entries).real
    h1, v1 = _ladder_diagonal(h, 1), _ladder_diagonal(rho_v.entries, -1)
    f = np.stack([n_h * p_h, n_h**2 * p_h, n_h * p_h, p_h,
                  h1, (n_h + 1) * h1, h1, _ladder_diagonal(h, 2)], axis=1)
    g = np.stack([p_v, p_v, n_v * p_v, n_v**2 * p_v,
                  v1, v1, n_v * v1, _ladder_diagonal(rho_v.entries, -2)])
    conv = np.concatenate([convolve(f, g), convolve(n_v * p_v, p_h)[:, None]], axis=1)
    photons = np.arange(weights.shape[1])
    # The manifolds a block-by-block total summed: N > 0 above the weight
    # floor.  Item 4 of ROADMAP.md drops the floor, which moves xi^2 by up to
    # 5.9e-10 relative and xi2_dB by 2.6e-9 absolute at the default study, so
    # it needs a re-pin of the benchmark references.
    keep = live & (photons > 0)
    kept = weights * keep
    owner, n = np.nonzero(keep[:, :top + 1])
    c = np.concatenate([conv[owner, :, n] / weights[owner, n, None],
                        np.vecdot(keep[:, None, :].astype(float), conv)])  # (r, 9)
    spin = photons / 2.0
    mean, second = _stokes_moments(
        np.concatenate([spin[n] * (spin[n] + 1), np.vecdot(kept, spin * (spin + 1))]),
        0.5 * (c[:, 0].real - c[:, 8].real),
        0.25 * (c[:, 1].real - 2.0 * c[:, 2].real + c[:, 3].real),
        c[:, 4], c[:, 5] - c[:, 6], c[:, 7],
    )
    spins = [*spin[n].tolist(), *(np.vecdot(kept, photons) / 2.0).tolist()]
    return weights, live, spins, mean, second


def total_stokes_summary(rho_h: ModeState, rho_v: ModeState) -> StokesSummary:
    """Squeezing of the whole state rho_H (x) rho_V, with the variance
    normalized by the mean photon number: `diagonal_moments` on a stack of one."""
    return stokes_summaries(*diagonal_moments([rho_h], rho_v)[2:])[0]


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

