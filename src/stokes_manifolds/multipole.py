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
from typing import NamedTuple

import numpy as np

from .polar import ManifoldBlock
from .sphere import FOUR_PI, SphereGrid, husimi_fourier


def _legendre_rows(m: int, max_degree: int, theta) -> list:
    """[P_lm(theta) for l = m..max_degree], m >= 0: the orthonormal associated
    Legendre functions with Condon-Shortley phase, Y_lm = P_lm e^{i m phi},
    by the standard upward recurrence in l."""
    theta = np.asarray(theta, dtype=float)
    x = np.cos(theta)
    log_ratio = math.lgamma(2 * m + 1) - 2 * math.lgamma(m + 1) - 2 * m * math.log(2.0)
    p = (-1.0) ** m * math.sqrt((2 * m + 1) / FOUR_PI * math.exp(log_ratio)) * np.sin(theta) ** m
    rows = [p]
    p_prev = 0.0
    for l in range(m + 1, max_degree + 1):
        a = math.sqrt((4.0 * l * l - 1.0) / (l * l - m * m))
        b = -math.sqrt(
            (2.0 * l + 1.0) / (2.0 * l - 3.0) * ((l - 1.0) ** 2 - m * m) / (l * l - m * m)
        )
        p, p_prev = a * x * p + b * p_prev, p
        rows.append(p)
    return rows


@dataclass(frozen=True)
class MultipoleSpectrum:
    """Complex multipoles of one manifold: rho[K, q + 2S] for K = 0..2S and
    q = -2S..2S, zero where |q| > K."""

    spin: float
    rho: np.ndarray

    @property
    def weights(self) -> np.ndarray:
        """W_K^(S) = sum_q |rho_Kq|^2 for K = 0..2S."""
        return np.sum(np.abs(self.rho) ** 2, axis=1)


def stretched_cg(two_s: int) -> np.ndarray:
    """C_K = <S S; K 0 | S S> for K = 0..2S, in closed form:
    C_K = (2S)! sqrt(2S+1) / sqrt((2S-K)! (2S+K+1)!)."""
    log_c = [
        math.lgamma(two_s + 1) - 0.5 * (math.lgamma(two_s - k + 1) + math.lgamma(two_s + k + 2))
        for k in range(two_s + 1)
    ]
    return np.exp(log_c) * math.sqrt(two_s + 1)


def _with_negative_orders(rho: np.ndarray) -> np.ndarray:
    """rho[K, q + 2S] of a Hermitian block from rho[K, q >= 0]: rho_{K,-q} = (-1)^q rho*_Kq."""
    q = np.arange(len(rho) - 1, 0, -1)  # 2S, ..., 1
    return np.concatenate(((-1.0) ** q * np.conj(rho[:, q]), rho), axis=1)


def multipoles_integral(block: ManifoldBlock, grid: SphereGrid) -> MultipoleSpectrum:
    """Multipoles by projecting the Husimi function onto Y*_Kq.

    rho_Kq = sqrt((2S+1)/4pi) / C_K * integral Y*_Kq(n) Q^(S)(n) dn with
    C_K = <S S; K 0 | S S> (Agarwal, PRA 24, 2889 (1981)).  Q^(S) is the
    azimuthal series sum_q e^{iq phi} F_q(theta) of `husimi_fourier`, with
    F_{-q} = conj(F_q), so the phi integral picks out one order and

        rho_Kq = sqrt((2S+1)/4pi) / C_K * 2pi sum_theta w_theta P_Kq(theta) F_q(theta),

    P_Kq(theta) = Y_Kq(theta, 0), on the Gauss nodes alone: one upward
    Legendre sweep over K per q >= 0.
    """
    two_s = block.photon_number
    f = husimi_fourier(block, grid) * grid.weights.sum(axis=1)  # 2pi w_theta F_q
    rho = np.zeros((two_s + 1, two_s + 1), dtype=complex)  # [K, q >= 0]
    for q in range(two_s + 1):
        rho[q:, q] = np.array(_legendre_rows(q, two_s, grid.theta)) @ f[q]
    rho *= (math.sqrt(block.dim / FOUR_PI) / stretched_cg(two_s))[:, None]
    return MultipoleSpectrum(block.spin, _with_negative_orders(rho))


# largest |Gram - 1| entry a Clebsch-Gordan table may show before it is refused
CG_TABLE_TOL = 1e-10


def _cg_recursion(two_s: int, i_out: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Unchecked C[K, c] = <S m_out; S -m_in | K, q>, m_out = S - i_out[c], m_in = m_out - q[c].

    With j1 = j2 = S the 3j symbols f(K) = (S S K; m_out -m_in -q) obey the
    three-term recursion in K of Schulten & Gordon (J. Math. Phys. 16, 1961
    (1975)), divided through by K(K+1):

        a(K+1) f(K+1) - (2K+1)(m_out + m_in) f(K) + a(K) f(K-1) = 0,
        a(K) = sqrt(((2S+1)^2 - K^2)(K^2 - q^2)),

    and the Clebsch-Gordan coefficient is sqrt(2K+1) f(K) up to a sign that
    does not depend on K.  Each recursion is stable only while the solution
    grows or oscillates, so f is run up from K = q and down from K = 2S and
    the two are spliced inside the classically allowed region, where the
    local characteristic roots are complex (Luscombe & Luban, PRE 57, 7274
    (1998)).  Every pair runs at once, so the loops have 2S+1 steps.
    Columns are normalised to sum_K C^2 = 1, with C[2S] > 0 as in the
    Condon-Shortley convention.
    """
    dim = two_s + 1
    k = np.arange(dim + 1, dtype=float)[:, None]
    a = np.sqrt(np.maximum((dim**2 - k**2) * (k**2 - q**2), 0.0))  # a(2S+1) = 0
    k = k[:dim]
    b = (2 * k + 1) * (two_s - 2.0 * i_out - q)  # (2K+1)(m_out + m_in)
    up = (k == q).astype(float)  # f(q) = 1, kept where the step below is masked
    down = np.zeros((dim + 1, len(q)))  # down[2S+1] = 0
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
        lack = b**2
        lack -= 4.0 * a[:dim] * a[1:]
        np.copyto(lack, np.inf, where=k < q)
        allowed = lack <= np.maximum(lack.min(axis=0), 0.0)
        del lack
        splice = np.argmax(np.where(allowed, np.abs(up), -1.0), axis=0)[None]
        down = down[:dim]
        scale = np.take_along_axis(up, splice, 0) / np.take_along_axis(down, splice, 0)
        table = np.where(k <= splice, up, down * scale) * np.sqrt(2 * k + 1)
    table /= np.sqrt(np.sum(table**2, axis=0))
    table *= np.sign(table[-1])
    return table


class CGTable(NamedTuple):
    """Clebsch-Gordan table of spin S = two_s/2 in diagonal-major order.

    values[K, c] = <S m_out; S -m_in | K, m_out - m_in> on the m-descending
    basis (m = S - i) for the pair (i_out, i_in) of column c.  The columns run
    over q = i_in - i_out = m_out - m_in from 0 to 2S (`_with_negative_orders`
    gives q < 0) and, within one q, over ascending i_out: `starts[q]` is the
    first column of order q and `pairs[c]` = i_out (2S+1) + i_in the flat
    index of column c in a (2S+1)^2 block.
    """

    values: np.ndarray
    pairs: np.ndarray
    starts: np.ndarray


def cg_table_deviation(table: CGTable) -> float:
    """Largest entry of |G_q - 1| over the orders q, where G_q is the Gram
    matrix over K of the table's q segment; nan if any entry is."""
    bounds = [*table.starts, table.values.shape[1]]
    devs = []
    for start, stop in zip(bounds[:-1], bounds[1:]):
        cols = table.values[:, start:stop]
        devs.append(np.max(np.abs(cols.T @ cols - np.eye(stop - start))))
    return float(np.max(devs))


@lru_cache(maxsize=None)
def cg_table(two_s: int) -> CGTable:
    """Read-only diagonal-major Clebsch-Gordan table of spin S = two_s/2,
    built once per spin and refused with ValueError unless orthonormal to
    CG_TABLE_TOL."""
    dim = two_s + 1
    q = np.repeat(np.arange(dim), np.arange(dim, 0, -1))  # 2S+1-q columns of order q
    starts = np.searchsorted(q, np.arange(dim))
    i_out = np.arange(len(q)) - starts[q]
    table = CGTable(_cg_recursion(two_s, i_out, q), i_out * (dim + 1) + q, starts)
    deviation = cg_table_deviation(table)
    if not deviation <= CG_TABLE_TOL:
        raise ValueError(
            f"Clebsch-Gordan table of S={two_s / 2:g} is not orthonormal: "
            f"deviation {deviation:.2e} exceeds {CG_TABLE_TOL:g}"
        )
    for array in table:
        array.setflags(write=False)
    return table


def multipoles_algebraic(block: ManifoldBlock) -> MultipoleSpectrum:
    """Multipoles as rho_Kq = Tr(T_Kq^dag rho) with trace-orthonormal tensors
    T_Kq[m_out, m_in] = (-1)^(S-m_in) <S m_out; S -m_in | K q>.

    T_Kq is nonzero only on the diagonal m_out - m_in = q, so the block is
    gathered once, signed, in the table's column order, and rho_Kq is the sum
    of the table row K times that column over the q segment: one product and
    one segmented sum for every K and q >= 0.  Normalization matches the
    quadrature route exactly (the dual-route test anchors both conventions).
    """
    table = cg_table(block.photon_number)
    signed = block.block * (-1.0) ** np.arange(block.dim)  # (-1)^(S - m_in)
    column = signed.ravel()[table.pairs]
    rho = np.add.reduceat(table.values * column, table.starts, axis=1)  # [K, q >= 0]
    return MultipoleSpectrum(block.spin, _with_negative_orders(rho))


def aggregate_weights(terms) -> np.ndarray:
    """Aggregated W_K: sum of P_S W_K^(S) over (P_S, W^(S)) pairs, in the
    order given; K runs from 0 to the largest 2S."""
    if not terms:
        return np.zeros(1)
    total = np.zeros(max(len(w) for _, w in terms))
    for weight, w in terms:
        total[: len(w)] += weight * w
    return total
