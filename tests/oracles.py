"""Dense and scalar reference implementations the tests check the package against.

The package computes each spin-S quantity along block diagonals; these are the
textbook forms it replaced: dense spin matrices and SU(2) rotations, the Racah
closed-form Clebsch-Gordan sum, and the pure-loss channel as dense Kraus
products.  Closed forms that only the tests evaluate live here too: the mean
photon number of one mode and the total-state xi^2 of the pure Gaussian model.
The writers the package replaced with faster ones are kept as the byte and
pixel references: the sector dump through `json.dump` and the foliation drawn
one ring at a time.  So are the per-block forms of the two stacked per-manifold
reports: the multipoles as one Clebsch-Gordan diagonal matvec per order q, and
the Stokes variance minimised one block at a time.  The total Stokes summary
the package takes from the two modes is kept as the sum over every manifold
block, each gathered in full.  Each mode is synthesised as the model states
it, displaced before the loss, where the package displaces one shared lossy
core by sqrt(eta) alpha.
"""

import json
import math
from functools import lru_cache

import numpy as np

from stokes_manifolds.fock import (
    ModeState,
    _unitary_exp,
    loss_channel,
    lowering_operator,
    padded_cutoff,
    squeeze_matrix,
    thermal_state,
)
from stokes_manifolds.multipole import cg_table
from stokes_manifolds.pipeline import RunConfig, run_sweep
from stokes_manifolds.polar import WEIGHT_FLOOR, ManifoldBlock
from stokes_manifolds.render import (
    BACKGROUND,
    _nearest_node_sampler,
    _pixel_plane,
    apply_colormap,
)
from stokes_manifolds.stokes import (
    DIRECTION_EPS,
    MODE_FULL,
    MODE_PERP,
    StokesSummary,
    _minimize_variance,
    _moments,
    _pick_direction,
    _undefined_summary,
)


@lru_cache(maxsize=None)
def default_ladder_blocks(cutoff):
    """Every block the default sweep at `cutoff` reports."""
    report = run_sweep(RunConfig(cutoff_h=cutoff, cutoff_v=cutoff))
    return tuple(b for res in report.results for b in res.sector.reported())


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
    return _unitary_exp(angle * (axis[0] * sx + axis[1] * sy + axis[2] * sz))


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
    """The q >= 0 table `cg_table(two_s)` scattered back through its column
    order to C[K, i_out, i_in] = <S m_out; S -m_in | K, m_out - m_in>, with
    the entries i_in < i_out from the index reversal
    <S -m1; S -m2 | K -M> = (-1)^(2S-K) <S m1; S m2 | K M>, which maps
    (i_out, i_in) to (2S - i_out, 2S - i_in)."""
    table = cg_table(two_s)
    dim = two_s + 1
    natural = np.zeros((dim, dim * dim))
    natural[:, table.pairs] = table.values
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
        gamma_min, w = _pick_direction(values, vectors)
        return gamma_min, basis @ w, MODE_PERP
    values, vectors = np.linalg.eigh(0.5 * (gamma + gamma.T))
    gamma_min, direction = _pick_direction(values, vectors)
    return gamma_min, direction, MODE_FULL


def stokes_summary_single(block):
    """The Stokes summary of one block through `minimize_variance_single`."""
    if block.negligible:
        raise ValueError("negligible block excluded from squeezing reports")
    if block.spin == 0:
        return _undefined_summary(0.0)
    mean, second = _moments(block)
    gamma = second - np.outer(mean, mean)
    gamma_min, direction, mode = minimize_variance_single(gamma, mean, block.spin)
    xi2 = 4.0 * gamma_min / block.photon_number
    return StokesSummary(block.spin, mean, gamma, gamma_min, direction, xi2, mode)


# -- the total Stokes summary block by block -----------------------------------

def full_block(rho_h, rho_v, n_total):
    """Manifold N of rho_H (x) rho_V gathered in full, (N+1) x (N+1) and
    unnormalised, with zero rows and columns for basis states past a cutoff."""
    ch, cv = rho_h.cutoff, rho_v.cutoff
    n_h = np.arange(n_total, -1, -1)  # m descending
    n_v = n_total - n_h
    pos = np.nonzero((n_h <= ch) & (n_v <= cv))[0]
    h, v = n_h[pos], n_v[pos]
    block = np.zeros((n_total + 1, n_total + 1), dtype=complex)
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
    disp = _unitary_exp(1j * (alpha * a.T - np.conj(alpha) * a))[: pad + 1, : pad + 1]
    unitary = disp @ squeeze_matrix(model.squeeze_parameter, pad)
    rho = unitary @ thermal_state(model.thermal_occupation, pad).entries @ unitary.conj().T
    lossy = loss_channel(ModeState(pad, rho), model.efficiency)
    return lossy.entries[: cutoff + 1, : cutoff + 1]


# -- writers the package replaced -----------------------------------------------

def json_dump_sector(sector, path):
    """The sector dump as nested lists through json.dump(indent=1, sort_keys=True)."""
    manifolds = [
        {
            "S": b.spin,
            "N": b.photon_number,
            "P": b.weight,
            "truncated": False,
            "negligible": b.negligible,
            "block": [[[float(z.real), float(z.imag)] for z in row] for row in b.block],
        }
        for b in sector.blocks
    ]
    with open(path, "w", encoding="utf-8") as fh:
        captured = float(sum(b.weight for b in sector.blocks))
        json.dump({"captured": captured, "manifolds": manifolds}, fh,
                  indent=1, sort_keys=True)
        fh.write("\n")


def foliation_loop(q, side=256):
    """The ring foliation drawn one ring at a time: a full-plane mask per ring,
    the ring's equator samples, and apply_colormap at the ring's own maximum."""
    parts = [p for p in q.parts if p.spin > 0]
    image = np.empty((side, side, 3), dtype=np.uint8)
    image[:] = BACKGROUND
    if not parts:
        return image
    radii = np.array([math.sqrt(p.spin * (p.spin + 1.0)) for p in parts])
    radii = radii / radii.max()
    half_width = 0.45 * np.min(np.diff(radii, prepend=0.0))
    u, v = _pixel_plane(side)
    rho = np.sqrt(u * u + v * v)
    psi = np.mod(np.arctan2(v, u), 2.0 * math.pi)
    for part, r in zip(parts, radii):
        ring = np.abs(rho - r) <= half_width
        if not ring.any():
            continue
        phi = psi[ring]
        vals = _nearest_node_sampler(part)(np.full_like(phi, 0.5 * math.pi), phi)
        image[ring] = apply_colormap(vals, vmax=float(vals.max()) or 1.0)
    return image
