"""Gaussian-family states of one optical mode in a truncated photon-number basis.

Conventions: quadrature x = (a + a^dag)/sqrt(2), vacuum variance 1/2; dB values
are 10*log10(Var/Var_vac).  The squeeze operator S(r) = exp[(r* a^2 - r a^dag^2)/2]
squeezes x for real r > 0.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

HERMITICITY_TOL = 1e-12


def padded_cutoff(cutoff: int) -> int:
    """Internal cutoff used when building operators that get cropped back down."""
    return math.ceil(1.5 * cutoff) + 10


def lowering_operator(dim: int) -> np.ndarray:
    """Bosonic annihilation operator on a dim-dimensional number basis."""
    a = np.zeros((dim, dim), dtype=complex)
    n = np.arange(1, dim)
    a[n - 1, n] = np.sqrt(n)
    return a


def _require_hermitian(mat: np.ndarray, what: str) -> np.ndarray:
    dev = np.max(np.abs(mat - mat.conj().T)) if mat.size else 0.0
    if dev >= HERMITICITY_TOL:
        raise ValueError(f"{what} is not Hermitian (max deviation {dev:.3e})")
    return 0.5 * (mat + mat.conj().T)


def _unitary_exp(h: np.ndarray) -> np.ndarray:
    """exp(-iH) of a Hermitian H as V diag(e^{-i lambda}) V^dag from its
    eigendecomposition, so the result is unitary by construction."""
    values, vectors = np.linalg.eigh(h)
    return (vectors * np.exp(-1j * values)) @ vectors.conj().T


@dataclass(frozen=True)
class ModeState:
    """Single-mode density matrix rho_{n n'} on photon numbers 0..cutoff."""

    cutoff: int
    entries: np.ndarray

    def __post_init__(self):
        if self.cutoff < 0:
            raise ValueError("cutoff must be non-negative")
        entries = np.asarray(self.entries, dtype=complex)
        dim = self.cutoff + 1
        if entries.shape != (dim, dim):
            raise ValueError(f"entries must be {dim}x{dim}, got {entries.shape}")
        entries = _require_hermitian(entries, "ModeState")
        entries.setflags(write=False)
        object.__setattr__(self, "entries", entries)

    @property
    def trace(self) -> float:
        return float(np.real(np.trace(self.entries)))

    @property
    def mean_photon_number(self) -> float:
        n = np.arange(self.cutoff + 1)
        return float(np.real(np.sum(n * np.diag(self.entries))))


def fit_noise_parameters(squeezing_db: float, antisqueezing_db: float) -> tuple[float, float]:
    """Invert measured squeezing/anti-squeezing levels into (r, nbar).

    Solves (2 nbar + 1) e^{-2r} = 10^{-squeezing_db/10} and
    (2 nbar + 1) e^{+2r} = 10^{+antisqueezing_db/10} for a squeezed thermal state.
    """
    if squeezing_db < 0 or antisqueezing_db < 0:
        raise ValueError("dB levels must be non-negative")
    if antisqueezing_db < squeezing_db:
        raise ValueError(
            "antisqueezing_db < squeezing_db would require negative thermal occupation"
        )
    r = (squeezing_db + antisqueezing_db) * math.log(10.0) / 40.0
    nbar = 0.5 * (10.0 ** ((antisqueezing_db - squeezing_db) / 20.0) - 1.0)
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


def displacement_matrix(alpha: complex, cutoff: int) -> np.ndarray:
    """Truncated displacement operator D(alpha) = exp(alpha a^dag - alpha* a).

    Built by exponentiating the generator at a padded cutoff and cropping, so
    the retained columns are accurate even near the truncation edge.
    """
    if not np.isfinite(alpha):
        raise ValueError("alpha must be finite")
    if cutoff < 0:
        raise ValueError("cutoff must be non-negative")
    pad = padded_cutoff(cutoff)
    a = lowering_operator(pad + 1)
    full = _unitary_exp(1j * (alpha * a.conj().T - np.conj(alpha) * a))
    mat = full[: cutoff + 1, : cutoff + 1]
    _warn_if_inaccurate(mat, full, "displacement_matrix", abs(alpha), cutoff)
    return mat


def squeeze_matrix(r: complex, cutoff: int) -> np.ndarray:
    """Truncated squeeze operator S(r) = exp[(r* a^2 - r a^dag^2)/2]."""
    if not np.isfinite(r):
        raise ValueError("r must be finite")
    if cutoff < 0:
        raise ValueError("cutoff must be non-negative")
    pad = padded_cutoff(cutoff)
    a = lowering_operator(pad + 1)
    a2 = a @ a
    full = _unitary_exp(0.5j * (np.conj(r) * a2 - r * a2.conj().T))
    mat = full[: cutoff + 1, : cutoff + 1]
    _warn_if_inaccurate(mat, full, "squeeze_matrix", abs(r), cutoff)
    return mat


def _warn_if_inaccurate(cropped, full, name, scale, cutoff):
    # Columns near the truncation edge always lose norm in the crop; what
    # signals a genuinely insufficient cutoff is weight of the vacuum column
    # escaping above it, or a non-unitary padded exponential.
    dim = full.shape[0]
    defect = np.max(np.abs(full.conj().T @ full - np.eye(dim)))
    vac_loss = 1.0 - np.sum(np.abs(cropped[:, 0]) ** 2)
    if defect > 1e-8 or vac_loss > 1e-6:
        warnings.warn(
            f"{name}: cutoff {cutoff} may be too small for argument magnitude "
            f"{scale:.3g} (unitarity defect {defect:.2e}, vacuum-column loss {vac_loss:.2e})",
            stacklevel=3,
        )


def thermal_state(nbar: float, cutoff: int) -> ModeState:
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


def loss_channel(state: ModeState, eta: float) -> ModeState:
    """Pure-loss channel with transmissivity eta, in Kraus form."""
    if not 0.0 <= eta <= 1.0:
        raise ValueError("eta must lie in [0, 1]")
    if eta == 1.0:
        return state
    dim = state.cutoff + 1
    rho = state.entries
    if eta == 0.0:
        out = np.zeros((dim, dim), dtype=complex)
        out[0, 0] = state.trace
        return ModeState(state.cutoff, out)
    out = np.zeros((dim, dim), dtype=complex)
    log_eta = math.log(eta)
    log_one_minus = math.log(1.0 - eta)
    log_fact = np.array([math.lgamma(n + 1) for n in range(dim)])
    for k in range(dim):
        n = np.arange(k, dim)
        log_c = log_fact[n] - log_fact[k] - log_fact[n - k]
        coeff = np.exp(0.5 * (log_c + (n - k) * log_eta + k * log_one_minus))
        kraus = np.zeros((dim, dim))
        kraus[n - k, n] = coeff
        out += kraus @ rho @ kraus.T
    return ModeState(state.cutoff, out)


def synthesize_mode(model: NoiseModel, alpha: complex, cutoff: int) -> ModeState:
    """Displaced squeezed thermal state with detection loss.

    rho = D(alpha) S(r) rho_th(nbar) S^dag(r) D^dag(alpha), then the loss
    channel with the model's efficiency.  Everything is assembled at a padded
    cutoff and cropped at the end, so the truncation deficit sits in the trace.
    """
    if cutoff < 0:
        raise ValueError("cutoff must be non-negative")
    pad = padded_cutoff(cutoff)
    r = model.squeeze_parameter
    nbar = model.thermal_occupation
    disp = displacement_matrix(alpha, pad)
    sq = squeeze_matrix(r, pad)
    unitary = disp @ sq
    rho = unitary @ thermal_state(nbar, pad).entries @ unitary.conj().T
    padded = ModeState(pad, 0.5 * (rho + rho.conj().T))
    lossy = loss_channel(padded, model.efficiency)
    cropped = lossy.entries[: cutoff + 1, : cutoff + 1]
    return ModeState(cutoff, cropped)

