"""Gaussian-family states of one optical mode in a truncated photon-number basis.

Conventions: quadrature x = (a + a^dag)/sqrt(2), vacuum variance 1/2; dB values
are 10*log10(Var/Var_vac).  The squeeze operator S(r) = exp[(r* a^2 - r a^dag^2)/2]
squeezes x for real r > 0.  A mode of the model is D(sqrt(eta) alpha) applied to
one lossy squeezed-thermal core, built once per model at the one padded size by a
Gaussian recurrence and the Kraus loss.  D's exact matrix elements come from
Laguerre's recurrence, with no eigensolver; a too-small cutoff shows in the
mode's trace deficit, on which the sweep warns.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

HERMITICITY_TOL = 1e-12


def padded_cutoff(cutoff: int) -> int:
    """The one padded size: the lossy core is built on 0..pad, then cropped."""
    return math.ceil(1.5 * cutoff) + 10


def require_hermitian(mat: np.ndarray, what: str) -> np.ndarray:
    """The Hermitian part 0.5 (M + M^dag) of a matrix, or of each matrix of a
    stack (..., d, d).  A ValueError names the largest |M - M^dag| of the
    first matrix whose deviation is not below HERMITICITY_TOL, so a NaN fails."""
    adjoint = mat.conj().swapaxes(-1, -2)
    dev = np.abs(mat - adjoint).max(axis=(-2, -1), initial=0.0)
    bad = ~(dev < HERMITICITY_TOL)
    if bad.any():
        raise ValueError(f"{what} is not Hermitian (max deviation {dev[bad][0]:.3e})")
    return 0.5 * (mat + adjoint)


def float_or_complex(values) -> np.ndarray:
    """The values as a float64 array if they are real, complex128 if not."""
    values = np.asarray(values)
    return values.astype(np.result_type(values.dtype, float), copy=False)


@dataclass(frozen=True)
class ModeState:
    """Single-mode density matrix rho_{n n'} on photon numbers 0..cutoff,
    float64 if its entries are real and complex128 if not."""

    cutoff: int
    entries: np.ndarray

    def __post_init__(self):
        if self.cutoff < 0:
            raise ValueError("cutoff must be non-negative")
        entries = float_or_complex(self.entries)
        dim = self.cutoff + 1
        if entries.shape != (dim, dim):
            raise ValueError(f"entries must be {dim}x{dim}, got {entries.shape}")
        entries = require_hermitian(entries, "ModeState")
        entries.setflags(write=False)
        object.__setattr__(self, "entries", entries)

    @property
    def trace(self) -> float:
        return float(np.real(np.trace(self.entries)))


def fit_noise_parameters(squeezing_db: float, antisqueezing_db: float) -> tuple[float, float]:
    """Invert measured squeezing/anti-squeezing levels into (r, nbar).

    Solves (2 nbar + 1) e^{-2r} = 10^{-squeezing_db/10} and
    (2 nbar + 1) e^{+2r} = 10^{+antisqueezing_db/10} for a squeezed thermal state;
    nbar is inf where 10^{(antisqueezing_db - squeezing_db)/20} overflows.
    """
    if squeezing_db < 0 or antisqueezing_db < 0:
        raise ValueError("dB levels must be non-negative")
    if antisqueezing_db < squeezing_db:
        raise ValueError(
            "antisqueezing_db < squeezing_db would require negative thermal occupation"
        )
    r = (squeezing_db + antisqueezing_db) * math.log(10.0) / 40.0
    try:
        nbar = 0.5 * (10.0 ** ((antisqueezing_db - squeezing_db) / 20.0) - 1.0)
    except OverflowError:
        nbar = math.inf
    return r, nbar


@dataclass(frozen=True)
class NoiseModel:
    """Squeezed-thermal noise model with detection efficiency.

    squeezing_db / antisqueezing_db are the variance levels below/above shot
    noise along the squeezed and anti-squeezed quadratures.
    """

    squeezing_db: float
    antisqueezing_db: float
    efficiency: float = 1.0
    squeeze_parameter: float = field(init=False, compare=False)
    thermal_occupation: float = field(init=False, compare=False)

    def __post_init__(self):
        if not 0.0 <= self.efficiency <= 1.0:
            raise ValueError("efficiency must lie in [0, 1]")
        r, nbar = fit_noise_parameters(self.squeezing_db, self.antisqueezing_db)
        object.__setattr__(self, "squeeze_parameter", r)
        object.__setattr__(self, "thermal_occupation", nbar)

    def mean_photons(self, alpha: complex) -> float:
        """Closed-form <n> = eta (|alpha|^2 + (nbar + 1/2) cosh 2r - 1/2) of the
        mode displaced by alpha; inf, not OverflowError, if |alpha|^2 overflows,
        and inf at any eta if (nbar + 1/2) cosh 2r does, as no cutoff holds the
        core before loss."""
        try:
            spread = (self.thermal_occupation + 0.5) * math.cosh(2.0 * self.squeeze_parameter)
        except OverflowError:
            spread = math.inf
        if spread == math.inf:
            return math.inf
        return self.efficiency * (abs(alpha) * abs(alpha) + spread - 0.5)


DISPLACEMENT_LIMIT = 1416.0  # |beta|^2 past which D's seed e^{-|beta|^2/2} underflows


@functools.lru_cache(maxsize=2)
def _laguerre_steps(top: int, cutoff: int) -> tuple[np.ndarray, ...]:
    """Per size, read-only: the step coefficients (p, q, b) and the gather's index and sign."""
    j, k = np.arange(top)[:, None], np.arange(cutoff + 1.0)
    q = 1.0 / np.sqrt((j + 1.0) * (j + k + 1.0))
    m, n = np.arange(top + 1)[:, None], np.arange(cutoff + 1)
    arrays = ((2 * j + 1 + k) * q, q, np.sqrt(j * (j + k)) * q,
              np.minimum(m, n) * (cutoff + 1) + np.abs(m - n),
              np.where(n > m, (-1.0) ** (n - m), 1.0))
    for array in arrays:
        array.setflags(write=False)
    return arrays


def displacement_matrix(alpha: complex, cutoff: int, top: int | None = None) -> np.ndarray:
    """Rows 0..top <= cutoff (all by default), columns 0..cutoff of the exact
    D(alpha) = exp(alpha a^dag - alpha* a) (Cahill & Glauber, PR 177, 1857 (1969)).
    For real beta each diagonal d_j = <j+k|D|j> = sqrt(j!/(j+k)!) beta^k e^{-beta^2/2}
    L_j^(k)(beta^2) starts at d_0 = e^{-beta^2/2} beta^k / sqrt(k!) and follows
    sqrt((j+1)(j+k+1)) d_{j+1} = (2j+1+k-beta^2) d_j - sqrt(j(j+k)) d_{j-1}, stable
    in j alone; <j|D|j+k> = (-1)^k d_j.  A real alpha gives float64; a complex one
    is D(|alpha|) with the phases diag(e^{i n arg alpha}) on both sides.  D(0) is
    the exact identity; a ValueError refuses |alpha|^2 above DISPLACEMENT_LIMIT."""
    top = cutoff if top is None else top
    alpha = complex(alpha)
    beta = alpha.real if alpha.imag == 0 else abs(alpha)
    x = beta * beta
    if not x <= DISPLACEMENT_LIMIT:  # NaN and inf fail too
        raise ValueError(f"alpha must be finite with |alpha|^2 = {x:.6g} <= DISPLACEMENT_LIMIT")
    if alpha == 0:
        return np.eye(top + 1, cutoff + 1)
    p, q, b, flat, sign = _laguerre_steps(top, cutoff)
    d = np.zeros((top + 2, cutoff + 1))  # row j = -1 (the last) stays 0
    d[0] = np.cumprod(np.r_[math.exp(-0.5 * x), beta / np.sqrt(np.arange(1.0, cutoff + 1))])
    c = p - x * q
    for j in range(top):
        d[j + 1] = c[j] * d[j] - b[j] * d[j - 1]
    part = sign * d.take(flat)
    if alpha.imag != 0:
        phase = np.exp(1j * np.angle(alpha) * np.arange(cutoff + 1))
        part = phase[:top + 1, None] * part * phase.conj()
    return part


def squeezed_thermal(r: float, nbar: float, cutoff: int) -> np.ndarray:
    """Float64 entries of S(r) rho_th(nbar) S^dag(r) on photon numbers 0..cutoff,
    exact at any cutoff: the Gaussian state has Sigma = V + I/2 with
    V = a diag(e^{-2r}, e^{2r}), a = nbar + 1/2, and no mean, so its entries obey
    sqrt(m+1) rho_{m+1,n} = A11 sqrt(m) rho_{m-1,n} + A12 sqrt(n) rho_{m,n-1} (row 0
    alike in n) from rho_00 = 1/sqrt(det Sigma), with det Sigma = a^2 + a cosh 2r
    + 1/4, A11 = -a sinh 2r / det Sigma and A12 = nbar (nbar + 1) / det Sigma
    (Miatto & Quesada, Quantum 4, 366 (2020)).  Each step keeps the parity of
    m - n, so every odd entry is exactly 0.0."""
    if not (math.isfinite(r) and 0.0 <= nbar < math.inf):
        raise ValueError("r must be finite and nbar finite and non-negative")
    a = nbar + 0.5
    det = a * a + a * math.cosh(2.0 * r) + 0.25
    a11, a12 = -a * math.sinh(2.0 * r) / det, nbar * (nbar + 1.0) / det
    root = np.sqrt(np.arange(cutoff + 1))
    rho = np.zeros((cutoff + 2, cutoff + 2))  # row m = -1 (the last), column n = -1 (the first)
    rho[0, 1::2] = np.cumprod(np.r_[1.0 / math.sqrt(det), a11 * root[1:-1:2] / root[2::2]])
    for m in range(cutoff):
        rho[m + 1, 1:] = (a11 * root[m] * rho[m - 1, 1:] + a12 * root * rho[m, :-1]) / root[m + 1]
    return rho[:-1, 1:]


def loss_channel(state: ModeState, eta: float) -> ModeState:
    """Pure-loss channel with transmissivity eta, in Kraus form.

    The Kraus operator E_k = sum_n c_k(n) |n-k><n|, with
    c_k(n) = sqrt(C(n, k) eta^(n-k) (1-eta)^k), shifts photon numbers down by
    k, so E_k rho E_k^T adds outer(c_k, c_k) * rho[k:, k:] to the top-left
    (dim-k) x (dim-k) corner: O(dim^3) work in all.
    """
    if not 0.0 <= eta <= 1.0:
        raise ValueError("eta must lie in [0, 1]")
    if eta == 1.0:
        return state
    dim = state.cutoff + 1
    rho = state.entries
    out = np.zeros((dim, dim), dtype=rho.dtype)
    if eta == 0.0:
        out[0, 0] = state.trace
        return ModeState(state.cutoff, out)
    log_eta = math.log(eta)
    log_one_minus = math.log(1.0 - eta)
    log_fact = np.array([math.lgamma(n + 1) for n in range(dim)])
    for k in range(dim):
        n = np.arange(k, dim)
        log_c = log_fact[n] - log_fact[k] - log_fact[n - k]
        coeff = np.exp(0.5 * (log_c + (n - k) * log_eta + k * log_one_minus))
        out[: dim - k, : dim - k] += np.outer(coeff, coeff) * rho[k:, k:]
    return ModeState(state.cutoff, out)


@functools.lru_cache(maxsize=2)
def _lossy_core(model: NoiseModel, pad: int) -> np.ndarray:
    """The alpha-independent part of every mode, L_eta(S rho_th S^dag) on
    photon numbers 0..pad, read-only."""
    rho = squeezed_thermal(model.squeeze_parameter, model.thermal_occupation, pad)
    return loss_channel(ModeState(pad, rho), model.efficiency).entries


def synthesize_mode(model: NoiseModel, alpha: complex, cutoff: int) -> ModeState:
    """Displaced squeezed thermal state with detection loss,
    rho = L_eta(D(alpha) S(r) rho_th(nbar) S^dag(r) D^dag(alpha)).

    Pure loss commutes with displacement up to the amplitude, L_eta(D(alpha)
    s D^dag(alpha)) = D(sqrt(eta) alpha) L_eta(s) D^dag(sqrt(eta) alpha), so
    each mode is D core D^dag with rows 0..cutoff of the exact D and the lossy
    core built once per (model, pad), all float64 for a real alpha.  The core
    is truncated at the pad, so 1 - trace measures a too-small cutoff."""
    pad = padded_cutoff(cutoff)
    disp = displacement_matrix(math.sqrt(model.efficiency) * alpha, pad, cutoff)
    return ModeState(cutoff, disp @ _lossy_core(model, pad) @ disp.conj().T)
