"""State multipoles of manifold blocks and the W_K localization spectrum.

Two independent routes compute the same coefficients: projection of the Husimi
function onto spherical harmonics (quadrature route) and the irreducible
tensor decomposition of the block (algebraic route).  Their agreement pins all
phase and normalization conventions in this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import gammaln

from .polar import ManifoldBlock
from .sphere import FOUR_PI, SphereGrid, husimi_manifold


def _half_int(value: float, name: str) -> int:
    doubled = round(2 * value)
    if abs(2 * value - doubled) > 1e-9:
        raise ValueError(f"{name}={value} is not a half-integer")
    return doubled


def clebsch_gordan(j1, m1, j2, m2, j, m) -> float:
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


def _logfact(n2: int) -> float:
    # n2 is twice an integer
    return float(gammaln(n2 // 2 + 1))


@lru_cache(maxsize=None)
def _cg_doubled(tj1, tm1, tj2, tm2, tj, tm) -> float:
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


def spherical_harmonic(degree: int, order: int, theta, phi) -> np.ndarray:
    """Orthonormal Y_Kq with Condon-Shortley phase; broadcasts over angles."""
    if degree < 0:
        raise ValueError("degree must be non-negative")
    if abs(order) > degree:
        raise ValueError(f"|order| = {abs(order)} exceeds degree {degree}")
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    m = abs(order)
    x = np.cos(theta)
    s = np.sin(theta)
    # normalized associated Legendre via the standard upward recurrence
    log_ratio = gammaln(2 * m + 1) - 2 * gammaln(m + 1) - 2 * m * math.log(2.0)
    p_mm = (-1.0) ** m * math.sqrt((2 * m + 1) / FOUR_PI * math.exp(log_ratio)) * s**m
    if degree == m:
        p = p_mm
    else:
        p_prev = p_mm
        p = math.sqrt(2 * m + 3.0) * x * p_mm
        for l in range(m + 2, degree + 1):
            a = math.sqrt((4.0 * l * l - 1.0) / (l * l - m * m))
            b = -math.sqrt(
                (2.0 * l + 1.0) / (2.0 * l - 3.0) * ((l - 1.0) ** 2 - m * m) / (l * l - m * m)
            )
            p, p_prev = a * x * p + b * p_prev, p
    y = p * np.exp(1j * m * phi)
    if order >= 0:
        return y
    return (-1.0) ** m * np.conj(y)


@dataclass(frozen=True)
class MultipoleSpectrum:
    """Complex multipoles of one manifold: coefficients[K][q + K] for q = -K..K."""

    spin: float
    coefficients: tuple[np.ndarray, ...]

    @property
    def weights(self) -> np.ndarray:
        """W_K^(S) = sum_q |rho_Kq|^2 for K = 0..2S."""
        return np.array([float(np.sum(np.abs(c) ** 2)) for c in self.coefficients])

    def coefficient(self, degree: int, order: int) -> complex:
        return complex(self.coefficients[degree][order + degree])


def multipoles_integral(block: ManifoldBlock, grid: SphereGrid) -> MultipoleSpectrum:
    """Multipoles by projecting the Husimi function onto Y*_Kq.

    rho_Kq = sqrt((2S+1)/4pi) / C^{SS}_{SS,K0} * integral Y*_Kq(n) Q^(S)(n) dn.
    The conjugate on Y is what makes this route agree with the algebraic one
    and satisfy rho_{K,-q} = (-1)^q rho*_{Kq}.
    """
    two_k_max = block.photon_number  # K runs to 2S
    if grid.exactness < 2 * block.photon_number:
        raise ValueError(
            f"grid exactness {grid.exactness} too coarse for S={block.spin}; "
            f"need >= {2 * block.photon_number}"
        )
    q_fun = husimi_manifold(block, grid)
    th, ph = grid.mesh()
    spin = block.spin
    coeffs = []
    for degree in range(two_k_max + 1):
        norm = clebsch_gordan(spin, spin, degree, 0, spin, spin)
        pref = math.sqrt(block.dim / FOUR_PI) / norm
        row = np.empty(2 * degree + 1, dtype=complex)
        for order in range(-degree, degree + 1):
            y = spherical_harmonic(degree, order, th, ph)
            row[order + degree] = pref * grid.integrate(np.conj(y) * q_fun.values)
        coeffs.append(row)
    return MultipoleSpectrum(spin, tuple(coeffs))


@lru_cache(maxsize=None)
def _tensor_basis(two_j: int) -> tuple:
    """Trace-orthonormal irreducible tensors T_Kq on the m-descending basis."""
    spin = two_j / 2.0
    dim = two_j + 1
    m_of = [spin - i for i in range(dim)]
    basis = []
    for degree in range(two_j + 1):
        row = []
        for order in range(-degree, degree + 1):
            t = np.zeros((dim, dim), dtype=complex)
            for i_out, m_out in enumerate(m_of):
                for i_in, m_in in enumerate(m_of):
                    if abs(m_out - m_in - order) > 1e-9:
                        continue
                    sign = (-1.0) ** round(spin - m_in)
                    t[i_out, i_in] = sign * clebsch_gordan(
                        spin, m_out, spin, -m_in, degree, order
                    )
            t.setflags(write=False)
            row.append(t)
        basis.append(tuple(row))
    return tuple(basis)


def multipoles_algebraic(block: ManifoldBlock) -> MultipoleSpectrum:
    """Multipoles as rho_Kq = Tr(T_Kq^dag rho) with trace-orthonormal tensors.

    Normalization matches the quadrature route exactly (the dual-route test is
    the anchor for both conventions).
    """
    basis = _tensor_basis(block.photon_number)
    coeffs = []
    for row in basis:
        vals = np.array([np.sum(np.conj(t) * block.block) for t in row])
        coeffs.append(vals)
    return MultipoleSpectrum(block.spin, tuple(coeffs))


def aggregate_weights(terms) -> np.ndarray:
    """Aggregated W_K: sum of P_S W_K^(S) over (P_S, W^(S)) pairs, in the
    order given; K runs from 0 to the largest 2S."""
    if not terms:
        return np.zeros(1)
    total = np.zeros(max(len(w) for _, w in terms))
    for weight, w in terms:
        total[: len(w)] += weight * w
    return total
