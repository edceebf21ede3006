"""Dense and scalar reference implementations the tests check the package against.

The package computes each spin-S quantity along block diagonals; these are the
textbook forms it replaced: dense spin matrices and SU(2) rotations, the Racah
closed-form Clebsch-Gordan sum, the pure-loss channel as dense Kraus
products, and the spherical harmonics at any angles.  Closed forms that only
the tests evaluate live here too: the mean photon number of one mode, the
total-state xi^2 of the pure Gaussian model, and each lossy mode as the
Gaussian that loss keeps it.
The writers the package replaced with faster ones are kept as the byte and
pixel references: the figure tables through `csv.writer`, the sector dump
through `json.dump`, the foliation drawn one ring at a time from the full map
of each manifold, and the heatmaps sampled pixel by pixel; both are colored
by `apply_colormap`, with the background painted over the pixels that show
no sphere, where the package paints every raster from one palette.  So are the
per-block forms of what a sweep computes for every amplitude at once: the
multipoles as one Clebsch-Gordan diagonal matvec per order q, the aggregated
W_K summed one block at a time, and the Stokes variance minimised one block
at a time with the scalar eigenvector tie rule.  The Husimi maps are kept as
the rows F_q, q > 0, doubled before the Fourier products, where the package
keeps the weight in its Fourier table.  The total Stokes summary
the package takes from the two modes is kept as the sum over every manifold
block, each gathered in full.  Each mode is synthesised as the model states
it: the squeeze operator, exponentiated at a padded size, on a diagonal
thermal state, displaced before the loss.  The package takes the squeezed
thermal state from its Gaussian recurrence and displaces one shared lossy
core by sqrt(eta) alpha, with D's entries from Laguerre's recurrence; their
closed form, evaluated in mpmath, is the displacement's oracle, and the whole
mode's is its Gaussian's Hermite recurrence in mpmath, from the dB levels.
"""

import csv
import io
import json
import math
from functools import lru_cache

import mpmath
import numpy as np

from stokes_manifolds.fock import (
    ModeState,
    displacement_matrix,
    loss_channel,
    padded_cutoff,
    squeezed_thermal,
)
from stokes_manifolds.multipole import cg_table, legendre_table
from stokes_manifolds.pipeline import RunConfig, run_sweep
from stokes_manifolds.polar import WEIGHT_FLOOR, ManifoldBlock, diagonal_order
from stokes_manifolds.render import COLORMAP, _axis_view_angles, _phi_index, _pixel_plane
from stokes_manifolds.sphere import FOUR_PI, husimi_manifold, husimi_rows, nearest_theta_node
from stokes_manifolds.stokes import (
    DIRECTION_EPS,
    MODE_FULL,
    MODE_PERP,
    StokesSummary,
    _minimize_variance,
    _moments,
    _undefined_summary,
)


@lru_cache(maxsize=None)
def default_ladder_sectors(cutoff):
    """The sector of each amplitude of the default sweep at `cutoff`."""
    report = run_sweep(RunConfig(cutoff_h=cutoff, cutoff_v=cutoff))
    return tuple(res.sector for res in report.results)


def default_ladder_blocks(cutoff):
    """Every block the default sweep at `cutoff` reports."""
    return tuple(b for sector in default_ladder_sectors(cutoff) for b in sector.reported())


def mean_photon_number(state):
    """<n> = sum_n n rho_nn of a single-mode state."""
    n = np.arange(state.cutoff + 1)
    return float(np.real(np.sum(n * np.diag(state.entries))))


def gaussian_total_xi2(alpha, r):
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


# -- the displacement's closed form in mpmath ----------------------------------

def exact_displacement(alpha, m, n, dps=50):
    """<m|D(alpha)|n> as an mpmath number at `dps` digits, from its closed form
    (Cahill & Glauber, Phys. Rev. 177, 1857 (1969)): sqrt(n!/m!) alpha^(m-n)
    e^{-|alpha|^2/2} L_n^(m-n)(|alpha|^2) for m >= n; for m < n, the same with
    m and n swapped and alpha replaced by -alpha*, since D(alpha)^dag = D(-alpha)."""
    with mpmath.workdps(dps):
        a = mpmath.mpc(alpha)
        x = abs(a) ** 2
        if m < n:
            m, n, a = n, m, -mpmath.conj(a)
        return (mpmath.sqrt(mpmath.factorial(n) / mpmath.factorial(m)) * a ** (m - n)
                * mpmath.exp(-x / 2) * mpmath.laguerre(n, m - n, x))


# -- each mode from its Gaussian, in mpmath -------------------------------------

def exact_mode(sq, anti, eta, alpha, cutoff, dps=40):
    """The model's mode on photon numbers 0..cutoff, float64 for a real alpha and
    complex128 otherwise, from its Gaussian by the two-index Hermite recurrence
    (Miatto & Quesada, Quantum 4, 366 (2020)) in mpmath at `dps` digits, built
    from the dB levels alone.  Loss keeps the state Gaussian: V' = diag(v_x, v_p)
    with v = (eta 10^{-+dB/10} + 1 - eta)/2, and d' = sqrt(2 eta) (Re alpha,
    Im alpha).  With Sigma = V' + I/2 and M = [[1, 1], [i, -i]]/sqrt(2), which
    maps z = (alpha*, beta) to (x, p), <alpha|rho|beta> e^{(|alpha|^2+|beta|^2)/2}
    = T exp(z^T A z/2 + b^T z) with A = [[0, 1], [1, 0]] - M^T Sigma^-1 M,
    b = M^T Sigma^-1 d' and T = e^{-d'^T Sigma^-1 d'/2}/sqrt(det Sigma), so
    sqrt(m+1) rho_{m+1,n} = b_1 rho_mn + A_11 sqrt(m) rho_{m-1,n} + A_12 sqrt(n) rho_{m,n-1},
    from row 0, which follows sqrt(n+1) rho_{0,n+1} = b_2 rho_0n + A_22 sqrt(n) rho_{0,n-1}."""
    with mpmath.workdps(dps):
        eta = mpmath.mpf(eta)
        v = [(eta * mpmath.power(10, mpmath.mpf(db) / 10) + 1 - eta) / 2 for db in (-sq, anti)]
        sigma = mpmath.diag([x + mpmath.mpf(1) / 2 for x in v])
        inv = mpmath.inverse(sigma)
        a = mpmath.mpc(alpha)
        d = mpmath.sqrt(2 * eta) * mpmath.matrix([a.real, a.imag])
        m = mpmath.matrix([[1, 1], [1j, -1j]]) / mpmath.sqrt(2)
        big_a = mpmath.matrix([[0, 1], [1, 0]]) - m.T * inv * m
        b = m.T * inv * d
        t = mpmath.exp(-(d.T * inv * d)[0, 0] / 2) / mpmath.sqrt(mpmath.det(sigma))
        real = a.imag == 0
        a11, a12, a22, b1, b2 = (x.real if real else x for x in
                                 (big_a[0, 0], big_a[0, 1], big_a[1, 1], b[0], b[1]))
        root = [mpmath.sqrt(k) for k in range(cutoff + 1)]
        rho = [[mpmath.mpf(0)] * (cutoff + 1) for _ in range(cutoff + 1)]
        rho[0][0] = t  # an index -1 below always meets the factor sqrt(0)
        for n in range(cutoff):
            rho[0][n + 1] = (b2 * rho[0][n] + a22 * root[n] * rho[0][n - 1]) / root[n + 1]
        for k in range(cutoff):
            for n in range(cutoff + 1):
                step = b1 * rho[k][n] + a11 * root[k] * rho[k - 1][n]
                rho[k + 1][n] = (step + a12 * root[n] * rho[k][n - 1]) / root[k + 1]
        return np.array(rho, dtype=float if real else complex)


# -- operators exponentiated by eigendecomposition, and the thermal state -------

def lowering_operator(dim):
    """Bosonic annihilation operator on a dim-dimensional number basis."""
    a = np.zeros((dim, dim), dtype=complex)
    n = np.arange(1, dim)
    a[n - 1, n] = np.sqrt(n)
    return a


def unitary_exp(h):
    """exp(-iH) of a Hermitian H as V diag(e^{-i lambda}) V^dag from its
    eigendecomposition, so the result is unitary by construction."""
    values, vectors = np.linalg.eigh(h)
    return (vectors * np.exp(-1j * values)) @ vectors.conj().T


def squeeze_matrix(r, cutoff):
    """Squeeze operator S(r) = exp[(r* a^2 - r a^dag^2)/2], padded and cropped to 0..cutoff."""
    if not np.isfinite(r):
        raise ValueError("r must be finite")
    a = lowering_operator(padded_cutoff(cutoff) + 1)
    a2 = a @ a
    full = unitary_exp(0.5j * (np.conj(r) * a2 - r * a2.conj().T))
    return full[: cutoff + 1, : cutoff + 1]


def thermal_state(nbar, cutoff):
    """Thermal state with mean occupation nbar, diagonal geometric weights."""
    if nbar < 0:
        raise ValueError("nbar must be non-negative")
    n = np.arange(cutoff + 1)
    if nbar == 0:
        probs = np.zeros(cutoff + 1)
        probs[0] = 1.0
    else:
        probs = np.exp(n * math.log(nbar) - (n + 1) * math.log(1.0 + nbar))
    return ModeState(cutoff, np.diag(probs.astype(complex)))


def padded_squeezed_thermal(r, nbar, cutoff):
    """S(r) rho_th(nbar) S^dag(r) from the padded exponential at twice the
    cutoff, cropped to 0..cutoff."""
    sq = squeeze_matrix(r, 2 * cutoff)
    rho = sq @ thermal_state(nbar, 2 * cutoff).entries @ sq.conj().T
    return rho[: cutoff + 1, : cutoff + 1]


# -- spin matrices ------------------------------------------------------------

def spin_matrices(spin):
    """Dense (Sx, Sy, Sz) of spin S on the basis m = S, ..., -S."""
    two_j = round(2 * spin)
    m = spin - np.arange(two_j + 1)  # descending
    sz = np.diag(m.astype(complex))
    raising = np.zeros((two_j + 1, two_j + 1), dtype=complex)
    for i in range(1, two_j + 1):
        # |m_i> -> |m_i + 1> sits one row up in descending order
        raising[i - 1, i] = math.sqrt(spin * (spin + 1) - m[i] * (m[i] + 1))
    lowering = raising.conj().T
    return 0.5 * (raising + lowering), -0.5j * (raising - lowering), sz


def rotation_matrix(spin, axis, angle):
    """SU(2) rotation exp(-i angle n.S) on the spin-S block."""
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    sx, sy, sz = spin_matrices(spin)
    return unitary_exp(angle * (axis[0] * sx + axis[1] * sy + axis[2] * sz))


def dense_moments(block):
    """Mean Stokes vector and <{S_k, S_l}>/2 as traces with dense matrices."""
    ops = spin_matrices(block.spin)
    rho = block.block
    mean = np.array([np.real(np.trace(rho @ s)) for s in ops])
    second = np.zeros((3, 3))
    for k in range(3):
        for l in range(k, 3):
            anti = ops[k] @ ops[l] + ops[l] @ ops[k]
            second[k, l] = second[l, k] = 0.5 * np.real(np.trace(rho @ anti))
    return mean, second


# -- spherical harmonics at any angles ------------------------------------------

def mesh(grid):
    """The (theta, phi) mesh of a tensor grid, each (n_theta, n_phi)."""
    return np.meshgrid(grid.theta, grid.phi, indexing="ij")


# -- Husimi maps with the weight 2 - delta_q0 applied to the rows ---------------

def weighted_rows_map(f, phi):
    """Re sum_q e^{iq phi} f[q] of rows f[q, theta] that already carry the weight
    2 - delta_q0: one vector-matrix product of each theta column with the
    cos(q phi) table, and one with the sin(q phi) table for complex rows."""
    angles = np.outer(np.arange(len(f)), phi)
    values = (np.ascontiguousarray(f.real.T)[:, None] @ np.cos(angles))[:, 0]
    if np.iscomplexobj(f):
        values -= (np.ascontiguousarray(f.imag.T)[:, None] @ np.sin(angles))[:, 0]
    return values


def _doubled_rows(block, grid):
    """The block's rows F_q[q, theta], those of q > 0 doubled in place."""
    f = husimi_rows(block.block[None], grid)[0].T.copy()
    f[1:] *= 2.0  # the q < 0 diagonals conjugate the q > 0 ones
    return f


def doubled_husimi_map(block, grid):
    """Q^(S) of one block, its q > 0 rows doubled before the Fourier products."""
    return weighted_rows_map(_doubled_rows(block, grid), grid.phi)


def doubled_husimi_total(blocks, grid):
    """sum_S P_S (2S+1)/(4 pi) Q^(S) of blocks in spin order: each block's doubled
    rows times P_S (2S+1)/(4 pi) added up, then mapped once."""
    dtype = np.result_type(float, *(b.block.dtype for b in blocks))
    g = np.zeros((max(b.dim for b in blocks), len(grid.theta)), dtype=dtype)
    for b in blocks:
        g[:b.dim] += _doubled_rows(b, grid) * (b.weight * (b.dim / FOUR_PI))
    return weighted_rows_map(g, grid.phi)


def spherical_harmonic(degree, order, theta, phi):
    """Orthonormal Y_Kq with Condon-Shortley phase at any theta and phi, which
    broadcast: the package's Legendre table at the angles, row (|q|, K),
    times e^{iq phi}."""
    if degree < 0:
        raise ValueError("degree must be non-negative")
    if abs(order) > degree:
        raise ValueError(f"|order| = {abs(order)} exceeds degree {degree}")
    m = abs(order)
    y = legendre_table(degree, theta)[m, degree] * np.exp(1j * m * np.asarray(phi, dtype=float))
    return y if order >= 0 else (-1.0) ** m * np.conj(y)


# -- Clebsch-Gordan coefficients by the Racah sum -----------------------------

def _half_int(value, name):
    doubled = round(2 * value)
    if abs(2 * value - doubled) > 1e-9:
        raise ValueError(f"{name}={value} is not a half-integer")
    return doubled


def clebsch_gordan(j1, m1, j2, m2, j, m):
    """Condon-Shortley Clebsch-Gordan coefficient <j1 m1; j2 m2 | j m>.

    Evaluated by the Racah closed-form sum with log-factorials and compensated
    summation; returns 0 when a selection rule fails.
    """
    tj1, tm1 = _half_int(j1, "j1"), _half_int(m1, "m1")
    tj2, tm2 = _half_int(j2, "j2"), _half_int(m2, "m2")
    tj, tm = _half_int(j, "j"), _half_int(m, "m")
    for tjj, tmm, name in ((tj1, tm1, "j1"), (tj2, tm2, "j2"), (tj, tm, "j")):
        if tjj < 0:
            raise ValueError(f"{name} must be non-negative")
        if abs(tmm) > tjj or (tjj - tmm) % 2 != 0:
            return 0.0
    return _cg_doubled(tj1, tm1, tj2, tm2, tj, tm)


def _logfact(n2):
    # n2 is twice an integer
    return math.lgamma(n2 // 2 + 1)


@lru_cache(maxsize=None)
def _cg_doubled(tj1, tm1, tj2, tm2, tj, tm):
    if tm1 + tm2 != tm:
        return 0.0
    if tj > tj1 + tj2 or tj < abs(tj1 - tj2) or (tj1 + tj2 + tj) % 2 != 0:
        return 0.0
    log_delta = (
        _logfact(tj1 + tj2 - tj)
        + _logfact(tj1 - tj2 + tj)
        + _logfact(-tj1 + tj2 + tj)
        - _logfact(tj1 + tj2 + tj + 2)
    )
    log_pre = 0.5 * (
        math.log(tj + 1)
        + log_delta
        + _logfact(tj1 + tm1)
        + _logfact(tj1 - tm1)
        + _logfact(tj2 + tm2)
        + _logfact(tj2 - tm2)
        + _logfact(tj + tm)
        + _logfact(tj - tm)
    )
    k_min = max(0, (tj2 - tj - tm1) // 2, (tj1 - tj + tm2) // 2)
    k_max = min((tj1 + tj2 - tj) // 2, (tj1 - tm1) // 2, (tj2 + tm2) // 2)
    terms = []
    for k in range(k_min, k_max + 1):
        log_den = (
            _logfact(2 * k)
            + _logfact(tj1 + tj2 - tj - 2 * k)
            + _logfact(tj1 - tm1 - 2 * k)
            + _logfact(tj2 + tm2 - 2 * k)
            + _logfact(tj - tj2 + tm1 + 2 * k)
            + _logfact(tj - tj1 - tm2 + 2 * k)
        )
        terms.append((-1.0) ** k * math.exp(log_pre - log_den))
    return math.fsum(terms)


def natural_cg_table(two_s):
    """The q >= 0 table `cg_table(two_s)`, its sign (-1)^i_in taken off, scattered
    back through `diagonal_order(2S+1).pairs` to
    C[K, i_out, i_in] = <S m_out; S -m_in | K, m_out - m_in>, with the
    entries i_in < i_out from the index reversal
    <S -m1; S -m2 | K -M> = (-1)^(2S-K) <S m1; S m2 | K M>, which maps
    (i_out, i_in) to (2S - i_out, 2S - i_in)."""
    dim = two_s + 1
    order = diagonal_order(dim)
    natural = np.zeros((dim, dim * dim))
    natural[:, order.pairs] = cg_table(two_s) * (-1.0) ** order.i_in
    natural = natural.reshape(dim, dim, dim)
    lower = np.tril(np.ones((dim, dim), dtype=bool), -1)  # i_in < i_out
    sign = (-1.0) ** (two_s - np.arange(dim))[:, None, None]
    reversed_ = sign * natural[:, ::-1, ::-1]
    natural[:, lower] = reversed_[:, lower]
    return natural


# -- per-block forms of the stacked per-manifold reports ----------------------

def multipoles_loop(block):
    """rho[K, q + 2S] by one real-by-complex matvec per order q: the table's
    q-diagonal with the same diagonal of the block signed by (-1)^(S - m_in)."""
    two_s = block.photon_number
    table = natural_cg_table(two_s)
    signed = block.block * (-1.0) ** np.arange(two_s + 1)
    rho = np.empty((two_s + 1, 2 * two_s + 1), dtype=complex)
    for q in range(-two_s, two_s + 1):
        rho[:, q + two_s] = np.diagonal(table, q, 1, 2) @ np.diagonal(signed, q)
    return rho


def pick_direction_single(values, vectors):
    """Smallest eigenvalue of one eigh with a deterministic eigenvector
    choice on ties: of the columns within 1e-12 max(1, max |lambda|) of the
    smallest, the lexicographically largest |column|, the first of equals,
    signed so its first component above 1e-12 in magnitude is positive."""
    tol = 1e-12 * max(1.0, float(np.max(np.abs(values))))
    gamma_min = float(values[0])
    candidates = [vectors[:, i] for i in range(len(values)) if values[i] <= gamma_min + tol]
    best = max(candidates, key=lambda v: tuple(np.abs(v)))
    lead = np.argmax(np.abs(best) > 1e-12)
    if best[lead].real < 0:
        best = -best
    return gamma_min, np.real(best)


def minimize_variance_single(gamma, mean, spin_scale):
    """Smallest variance of one (3, 3) covariance: over the plane perpendicular
    to an appreciable mean, else over the whole space."""
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
        gamma_min, w = pick_direction_single(values, vectors)
        return gamma_min, basis @ w, MODE_PERP
    values, vectors = np.linalg.eigh(0.5 * (gamma + gamma.T))
    gamma_min, direction = pick_direction_single(values, vectors)
    return gamma_min, direction, MODE_FULL


def stokes_summary_single(block):
    """The Stokes summary of one block through `minimize_variance_single`."""
    if block.spin == 0:
        return _undefined_summary(0.0)
    mean, second = _moments(block)
    gamma = second - np.outer(mean, mean)
    gamma_min, direction, mode = minimize_variance_single(gamma, mean, block.spin)
    xi2 = 4.0 * gamma_min / block.photon_number
    return StokesSummary(block.spin, mean, gamma, gamma_min, direction, xi2, mode)


def aggregate_weights(terms):
    """Aggregated W_K: sum of P_S W_K^(S) over (P_S, W^(S)) pairs, in the
    order given, one block at a time; K runs from 0 to the largest 2S."""
    if not terms:
        return np.zeros(1)
    total = np.zeros(max(len(w) for _, w in terms))
    for weight, w in terms:
        total[: len(w)] += weight * w
    return total


# -- the total Stokes summary block by block -----------------------------------

def full_block(rho_h, rho_v, n_total):
    """Manifold N of rho_H (x) rho_V gathered in full, (N+1) x (N+1) and
    unnormalised, with zero rows and columns for basis states past a cutoff,
    real if both modes are."""
    ch, cv = rho_h.cutoff, rho_v.cutoff
    n_h = np.arange(n_total, -1, -1)  # m descending
    n_v = n_total - n_h
    pos = np.nonzero((n_h <= ch) & (n_v <= cv))[0]
    h, v = n_h[pos], n_v[pos]
    block = np.zeros((n_total + 1, n_total + 1),
                     dtype=np.result_type(rho_h.entries, rho_v.entries))
    block[np.ix_(pos, pos)] = rho_h.entries[np.ix_(h, h)] * rho_v.entries[np.ix_(v, v)]
    return block


def block_sum_total(rho_h, rho_v):
    """The total Stokes summary as the P_N-weighted sum of the per-block
    moments of every manifold N = 1..ch+cv above the weight floor, straddling
    ones included, with the variance normalised by the mean photon number."""
    mean, second, mean_photons = np.zeros(3), np.zeros((3, 3)), 0.0
    for n_total in range(1, rho_h.cutoff + rho_v.cutoff + 1):
        block = full_block(rho_h, rho_v, n_total)
        weight = float(np.real(np.trace(block)))
        if weight <= WEIGHT_FLOOR:
            continue
        bm, bs = _moments(ManifoldBlock(n_total / 2.0, weight, block / weight))
        mean += weight * bm
        second += weight * bs
        mean_photons += weight * n_total
    if mean_photons == 0.0:
        return _undefined_summary(0.0)
    gamma = second - np.outer(mean, mean)
    spin_scale = mean_photons / 2.0
    gamma_min, direction, mode = _minimize_variance(
        gamma[None], mean[None], np.array([spin_scale]))
    xi2 = 4.0 * gamma_min[0] / mean_photons
    return StokesSummary(spin_scale, mean, gamma, gamma_min[0], direction[0], xi2, mode[0])


# -- pure loss as dense Kraus products ----------------------------------------

def dense_loss(rho, eta):
    """sum_k E_k rho E_k^T with each Kraus operator E_k a dense dim x dim matrix,
    E_k = sum_n sqrt(C(n, k) eta^(n-k) (1-eta)^k) |n-k><n|."""
    dim = rho.shape[0]
    out = np.zeros((dim, dim), dtype=complex)
    log_fact = np.array([math.lgamma(n + 1) for n in range(dim)])
    for k in range(dim):
        n = np.arange(k, dim)
        log_c = log_fact[n] - log_fact[k] - log_fact[n - k]
        coeff = np.exp(0.5 * (log_c + (n - k) * math.log(eta) + k * math.log(1.0 - eta)))
        kraus = np.zeros((dim, dim))
        kraus[n - k, n] = coeff
        out += kraus @ rho @ kraus.T
    return out


# -- synthesis in the order of the model ----------------------------------------

def direct_synthesis(model, alpha, cutoff):
    """L_eta(D(alpha) S rho_th S^dag D^dag(alpha)) on the padded cutoff, the loss
    applied last, cropped to 0..cutoff.  D(alpha) is exponentiated from its
    generator on `padded_cutoff(pad) + 1` levels and cropped to the pad."""
    pad = padded_cutoff(cutoff)
    a = lowering_operator(padded_cutoff(pad) + 1)
    disp = unitary_exp(1j * (alpha * a.T - np.conj(alpha) * a))[: pad + 1, : pad + 1]
    unitary = disp @ squeeze_matrix(model.squeeze_parameter, pad)
    rho = unitary @ thermal_state(model.thermal_occupation, pad).entries @ unitary.conj().T
    lossy = loss_channel(ModeState(pad, rho), model.efficiency)
    return lossy.entries[: cutoff + 1, : cutoff + 1]


def lossy_gaussian_mode(sq_db, anti_db, eta, alpha, cutoff, pad=400):
    """The model's mode on 0..cutoff from its Gaussian, with no Kraus loss.
    Loss keeps the state Gaussian, V' = eta V + (1 - eta)/2 I, and the fit
    (2 nbar + 1) e^{-+2r} = 10^{-+dB/10} puts V's diagonal at 10^{-+dB/10}/2,
    so the lossy core is squeezed thermal with nbar' + 1/2 = sqrt(v1 v2) and
    e^{4r'} = v2/v1: `squeezed_thermal`, exact on 0..pad, displaced by the
    exact D(sqrt(eta) alpha).  It converges at any squeezing while the pad's
    tail is negligible."""
    v1 = 0.5 * (eta * 10.0 ** (-sq_db / 10.0) + 1.0 - eta)
    v2 = 0.5 * (eta * 10.0 ** (anti_db / 10.0) + 1.0 - eta)
    core = squeezed_thermal(0.25 * math.log(v2 / v1), math.sqrt(v1 * v2) - 0.5, pad)
    disp = displacement_matrix(math.sqrt(eta) * alpha, pad, cutoff)
    return disp @ core @ disp.T


# -- writers the package replaced -----------------------------------------------

def csv_writer_table(header, rows) -> bytes:
    """A table through csv.writer, each float printed with %.12g and any
    other field with str."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows([f"{v:.12g}" if isinstance(v, float) else str(v) for v in row]
                     for row in rows)
    return buf.getvalue().encode("utf-8")


def csv_figure_tables(report) -> dict:
    """fig3a-fig3d of a run report, name -> bytes, from one row tuple per
    line through `csv_writer_table`."""
    fig3a = [
        (res.alpha, s.spin, round(2 * s.spin), res.manifold_weights[round(2 * s.spin)],
         *s.mean, s.gamma_min, s.xi2, s.xi2_db, s.mode)
        for res in report.results for s in res.manifold_summaries
    ]
    fig3b = [(res.alpha, n, weight)
             for res in report.results for n, weight in enumerate(res.manifold_weights)]
    fig3c = [(res.alpha, res.total.xi2, res.total.xi2_db, res.analytic_estimate, res.total.mode)
             for res in report.results]
    fig3d = [
        (res.alpha, spin, k, w)
        for res in report.results
        for spin, weights in (*res.manifold_multipoles, ("total", res.aggregated_weights))
        for k, w in enumerate(weights)
    ]
    return {
        "fig3a.csv": csv_writer_table(
            ["alpha", "S", "N", "P_S", "mean_x", "mean_y", "mean_z",
             "gamma_min", "xi2", "xi2_dB", "mode"], fig3a),
        "fig3b.csv": csv_writer_table(["alpha", "N", "P_N"], fig3b),
        "fig3c.csv": csv_writer_table(
            ["alpha", "xi2", "xi2_dB", "analytic_estimate", "mode"], fig3c),
        "fig3d.csv": csv_writer_table(["alpha", "S", "K", "W_K"], fig3d),
    }


def json_dump_sector(sector, path):
    """The sector dump as nested lists through json.dump(indent=1, sort_keys=True),
    each -0.0 folded into 0.0 by + 0.0."""
    manifolds = [
        {
            "S": b.spin,
            "N": b.photon_number,
            "P": b.weight,
            "truncated": False,
            "negligible": False,
            "block": [[[float(z.real) + 0.0, float(z.imag) + 0.0] for z in row]
                      for row in b.block],
        }
        for b in sector.blocks
    ]
    with open(path, "w", encoding="utf-8") as fh:
        captured = float(sum(b.weight for b in sector.blocks))
        json.dump({"captured": captured, "manifolds": manifolds}, fh,
                  indent=1, sort_keys=True)
        fh.write("\n")


BACKGROUND = np.array([0, 0, 0], dtype=np.uint8)


def apply_colormap(values, vmax=None):
    """Map an array of floats to RGB through the fixed table, over [0, vmax]:
    vmax the array maximum by default, and every value to entry 0 if vmax is
    not positive.  The heatmaps were colored so, then the pixels outside an
    axis view's disk repainted with BACKGROUND."""
    values = np.asarray(values, dtype=float)
    if vmax is None:
        vmax = float(values.max()) if values.size else 1.0
    if vmax > 0.0:
        idx = np.clip(values / vmax * 255.0, 0.0, 255.0).astype(np.intp)
    else:
        idx = np.zeros(values.shape, np.intp)
    return np.take(COLORMAP, idx, axis=0)


def nearest_node_sampler(q):
    """Q at the grid node nearest to each (theta, phi), looked up per call."""
    grid = q.grid

    def sample(theta, phi):
        return q.values[nearest_theta_node(grid.theta, theta), _phi_index(grid.n_phi, phi)]

    return sample


def manifold_parts(sector, grid, max_spin=None):
    """(spin, full map) of each reported manifold, `husimi_manifold` per block."""
    return tuple((b.spin, husimi_manifold(b, grid)) for b in sector.reported(max_spin))


def foliation_loop(parts, side=256):
    """The ring foliation drawn one ring at a time from full manifold maps
    (`manifold_parts`, (spin, map) pairs in spin order): a full-plane mask per
    ring, the ring's equator samples, and apply_colormap at the ring's own
    maximum."""
    parts = [(spin, part) for spin, part in parts if spin > 0]
    image = np.empty((side, side, 3), dtype=np.uint8)
    image[:] = BACKGROUND
    if not parts:
        return image
    radii = np.array([math.sqrt(spin * (spin + 1.0)) for spin, _ in parts])
    radii = radii / radii.max()
    half_width = 0.45 * np.min(np.diff(radii, prepend=0.0))
    u, v = _pixel_plane(side)
    rho = np.sqrt(u * u + v * v)
    psi = np.mod(np.arctan2(v, u), 2.0 * math.pi)
    for (_, part), r in zip(parts, radii):
        ring = np.abs(rho - r) <= half_width
        if not ring.any():
            continue
        phi = psi[ring]
        vals = nearest_node_sampler(part)(np.full_like(phi, 0.5 * math.pi), phi)
        image[ring] = apply_colormap(vals, vmax=float(vals.max()) or 1.0)
    return image


def heatmap_loop(q, projection, resolution):
    """A heatmap sampled pixel by pixel at the nearest node, with no cached
    pixel map."""
    if projection == "equirectangular":
        rows, cols = resolution
        theta = (np.arange(rows) + 0.5) * math.pi / rows
        phi = (np.arange(cols) + 0.5) * 2.0 * math.pi / cols
        th, ph = np.meshgrid(theta, phi, indexing="ij")
        return apply_colormap(nearest_node_sampler(q)(th, ph))
    side = min(resolution)
    theta, phi, visible = _axis_view_angles(projection, *_pixel_plane(side))
    vals = np.zeros((side, side))
    vals[visible] = nearest_node_sampler(q)(theta[visible], phi[visible])
    image = np.empty((side, side, 3), dtype=np.uint8)
    image[:] = BACKGROUND
    image[visible] = apply_colormap(vals, vmax=float(vals.max()) or 1.0)[visible]
    return image
