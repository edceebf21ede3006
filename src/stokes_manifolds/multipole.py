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
    return math.lgamma(n2 // 2 + 1)


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
    log_ratio = math.lgamma(2 * m + 1) - 2 * math.lgamma(m + 1) - 2 * m * math.log(2.0)
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


# largest |Gram - 1| entry a Clebsch-Gordan table may show before it is refused
CG_TABLE_TOL = 1e-10


def _cg_recursion(two_s: int) -> np.ndarray:
    """Unchecked table C[K, i_out, i_in] = <S m_out; S -m_in | K, m_out - m_in>.

    With j1 = j2 = S the 3j symbols f(K) = (S S K; m_out -m_in m_in-m_out)
    obey the three-term recursion in K of Schulten & Gordon (J. Math. Phys.
    16, 1961 (1975)), divided through by K(K+1):

        a(K+1) f(K+1) - (2K+1)(m_out + m_in) f(K) + a(K) f(K-1) = 0,
        a(K) = sqrt(((2S+1)^2 - K^2)(K^2 - q^2)),  q = m_out - m_in,

    and the Clebsch-Gordan coefficient is sqrt(2K+1) f(K) up to a sign that
    does not depend on K.  Each recursion is stable only while the solution
    grows or oscillates, so f is run up from K = |q| and down from K = 2S
    and the two are spliced inside the classically allowed region, where the
    local characteristic roots are complex (Luscombe & Luban, PRE 57, 7274
    (1998)).  Every (m_out, m_in) pair runs at once, so the loops have 2S+1
    steps.  Rows are normalised to sum_K C^2 = 1, with C[2S] > 0 as in the
    Condon-Shortley convention.
    """
    dim = two_s + 1
    m = two_s / 2.0 - np.arange(dim)
    q = np.abs(m[:, None] - m[None, :])
    k = np.arange(dim + 1, dtype=float)[:, None, None]
    a = np.sqrt(np.maximum((dim**2 - k**2) * (k**2 - q**2), 0.0))  # a(2S+1) = 0
    k = k[:dim]
    b = (2 * k + 1) * (m[:, None] + m[None, :])
    up = (k == q).astype(float)  # f(|q|) = 1, kept where the step below is masked
    down = np.zeros((dim + 1, dim, dim))  # down[2S+1] = 0
    down[two_s] = 1.0
    # the unspliced halves may overflow where they are unstable; they are discarded
    with np.errstate(over="ignore", invalid="ignore"):
        for K in range(two_s):
            prev = up[K - 1] if K else 0.0
            np.divide(b[K] * up[K] - a[K] * prev, a[K + 1], out=up[K + 1], where=K + 1 > q)
        for K in range(two_s, 0, -1):
            np.divide(b[K] * down[K] - a[K + 1] * down[K + 1], a[K], out=down[K - 1],
                      where=K > q)
        # splice at the largest |f_up| among allowed K (b^2 < 4 a(K) a(K+1)); a
        # pair with no allowed K splices at the K nearest to allowed, its peak
        lack = np.where(k >= q, b**2 - 4.0 * a[:dim] * a[1:], np.inf)
        allowed = lack <= np.maximum(lack.min(axis=0), 0.0)
        splice = np.argmax(np.where(allowed, np.abs(up), -1.0), axis=0)[None]
        down = down[:dim]
        scale = np.take_along_axis(up, splice, 0) / np.take_along_axis(down, splice, 0)
        table = np.where(k <= splice, up, down * scale) * np.sqrt(2 * k + 1)
    table /= np.sqrt(np.sum(table**2, axis=0))
    table *= np.sign(table[-1])
    return table


def cg_table_deviation(table: np.ndarray) -> float:
    """Largest entry of |G_q - 1| over the diagonal offsets q, where G_q is the
    Gram matrix over K of the table's q-diagonal columns; nan if any entry is."""
    dim = table.shape[0]
    devs = []
    for q in range(1 - dim, dim):
        cols = np.diagonal(table, q, 1, 2)
        devs.append(np.max(np.abs(cols.T @ cols - np.eye(cols.shape[1]))))
    return float(np.max(devs))


@lru_cache(maxsize=None)
def cg_table(two_s: int) -> np.ndarray:
    """Read-only Clebsch-Gordan table of spin S = two_s/2, indexed
    [K, i_out, i_in] on the m-descending basis (m = S - i); built once per
    spin and refused with ValueError unless orthonormal to CG_TABLE_TOL."""
    table = _cg_recursion(two_s)
    deviation = cg_table_deviation(table)
    if not deviation <= CG_TABLE_TOL:
        raise ValueError(
            f"Clebsch-Gordan table of S={two_s / 2:g} is not orthonormal: "
            f"deviation {deviation:.2e} exceeds {CG_TABLE_TOL:g}"
        )
    table.setflags(write=False)
    return table


def multipoles_algebraic(block: ManifoldBlock) -> MultipoleSpectrum:
    """Multipoles as rho_Kq = Tr(T_Kq^dag rho) with trace-orthonormal tensors
    T_Kq[m_out, m_in] = (-1)^(S-m_in) <S m_out; S -m_in | K q>.

    T_Kq is nonzero only on the diagonal m_out - m_in = q, so each order q is
    one real-by-complex matvec of the table's q-diagonal with the block's.
    Normalization matches the quadrature route exactly (the dual-route test is
    the anchor for both conventions).
    """
    two_s = block.photon_number
    table = cg_table(two_s)
    signed = block.block * (-1.0) ** np.arange(two_s + 1)  # (-1)^(S - m_in)
    rho = np.empty((two_s + 1, 2 * two_s + 1), dtype=complex)
    for q in range(-two_s, two_s + 1):
        rho[:, q + two_s] = np.diagonal(table, q, 1, 2) @ np.diagonal(signed, q)
    coeffs = tuple(rho[k, two_s - k : two_s + k + 1] for k in range(two_s + 1))
    return MultipoleSpectrum(block.spin, coeffs)


def aggregate_weights(terms) -> np.ndarray:
    """Aggregated W_K: sum of P_S W_K^(S) over (P_S, W^(S)) pairs, in the
    order given; K runs from 0 to the largest 2S."""
    if not terms:
        return np.zeros(1)
    total = np.zeros(max(len(w) for _, w in terms))
    for weight, w in terms:
        total[: len(w)] += weight * w
    return total
