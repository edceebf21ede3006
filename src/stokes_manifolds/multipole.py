"""State multipoles of manifold blocks and the W_K localization spectrum.

Two independent routes compute the same coefficients: projection of the Husimi
function onto spherical harmonics (quadrature route) and the irreducible
tensor decomposition of the block (algebraic route).  Their agreement pins all
phase and normalization conventions in this module.  Both hold the orders
q >= 0 alone, and the algebraic route indexes the block and the Clebsch-Gordan
table by the diagonal-major order of `polar.diagonal_order`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .polar import ManifoldBlock, diagonal_order, diagonal_sums
from .sphere import FOUR_PI, SphereGrid, husimi_rows


def legendre_table(top: int, theta) -> np.ndarray:
    """table[m, l] = P_lm(theta), 0 <= m <= l <= top (zero for l < m), the orthonormal
    Legendre functions with Condon-Shortley phase, Y_lm = P_lm e^{i m phi}, by the upward
    recurrence in l for every m at once; no row's bits depend on `top`."""
    theta = np.asarray(theta, dtype=float)
    x = np.cos(theta)
    table = np.zeros((top + 1, top + 1, *theta.shape))
    for m in range(top + 1):
        log_ratio = math.lgamma(2 * m + 1) - 2 * math.lgamma(m + 1) - 2 * m * math.log(2.0)
        norm = math.sqrt((2 * m + 1) / FOUR_PI * math.exp(log_ratio))
        table[m, m] = (-1.0) ** m * norm * np.sin(theta) ** m
    m2 = np.arange(top + 1).reshape(-1, *(1,) * theta.ndim) ** 2  # m^2, a row per order
    for l in range(1, top + 1):
        a = np.sqrt((4.0 * l * l - 1.0) / (l * l - m2[:l]))
        b = -np.sqrt((2 * l + 1) / (2 * l - 3) * ((l - 1) ** 2 - m2[:l]) / (l * l - m2[:l]))
        table[:l, l] = a * x * table[:l, l - 1] + b * (table[:l, l - 2] if l > 1 else 0.0)
    return table


@dataclass(frozen=True)
class MultipoleSpectrum:
    """Multipoles of one manifold: rho[K, q] for K = 0..2S and the orders
    q = 0..2S, zero where q > K; both routes keep a real block's real.
    A Hermitian block fixes the negative orders as
    rho_{K,-q} = (-1)^q conj(rho_Kq), so they are not stored."""

    rho: np.ndarray

    @property
    def weights(self) -> np.ndarray:
        """W_K^(S) for K = 0..2S, by `spectrum_weights`."""
        return spectrum_weights(self.rho)


def spectrum_weights(rho: np.ndarray) -> np.ndarray:
    """W_K^(S) = sum_q |rho_Kq|^2 over q = -2S..2S for K = 0..2S of the q >= 0
    multipoles rho[..., K, q] of one block or of a stack; the rule
    rho_{K,-q} = (-1)^q conj(rho_Kq) makes it |rho_K0|^2 + 2 sum_{q>0} |rho_Kq|^2."""
    half = np.abs(rho) ** 2
    return half[..., 0] + 2.0 * np.sum(half[..., 1:], axis=-1)


def stretched_cg(two_s: int) -> np.ndarray:
    """C_K = <S S; K 0 | S S> for K = 0..2S, in closed form:
    C_K = (2S)! sqrt(2S+1) / sqrt((2S-K)! (2S+K+1)!)."""
    log_c = [
        math.lgamma(two_s + 1) - 0.5 * (math.lgamma(two_s - k + 1) + math.lgamma(two_s + k + 2))
        for k in range(two_s + 1)
    ]
    return np.exp(log_c) * math.sqrt(two_s + 1)


def multipoles_integral(block: ManifoldBlock, grid: SphereGrid) -> MultipoleSpectrum:
    """`quadrature_multipoles` of the block's `husimi_rows`, as a stack of one."""
    rows = husimi_rows(block.block[None], grid)
    return MultipoleSpectrum(
        quadrature_multipoles(rows, grid, legendre_table(block.photon_number, grid.theta))[0])


def quadrature_multipoles(rows, grid: SphereGrid, legendre) -> np.ndarray:
    """The projections rho[n, K, q >= 0] of the maps Q^(S) onto Y*_Kq, from the Husimi rows
    [n, theta, q] of a stack of spin-S blocks and a `legendre_table` of the theta nodes to
    degree >= 2S, both left as they are: rho_Kq = sqrt((2S+1)/4pi) / C_K * 2pi sum_theta
    w_theta P_Kq(theta) F_q(theta), C_K = <S S; K 0 | S S> (Agarwal, PRA 24, 2889 (1981)),
    as one product batched over q; the table's zeros at K < q give rho's."""
    dim = rows.shape[-1]
    rho = legendre[:dim, :dim] @ (rows * grid.weights.sum(axis=1)[:, None]).T  # [q, K, n]
    return rho.T * (math.sqrt(dim / FOUR_PI) / stretched_cg(dim - 1))[:, None]


# largest |Gram - 1| entry a Clebsch-Gordan table may show before it is refused
CG_TABLE_TOL = 1e-10
CG_DEVIATIONS: dict[int, float] = {}  # by 2S, of each table `cg_table` has built


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


def cg_table_deviation(table: np.ndarray) -> float:
    """Largest entry of |G_q - 1| over the orders q, where G_q is the Gram
    matrix over K of the table's q segment; nan if any entry is."""
    bounds = [*diagonal_order(len(table)).starts, table.shape[1]]
    devs = []
    for start, stop in zip(bounds[:-1], bounds[1:]):
        cols = table[:, start:stop]
        devs.append(np.max(np.abs(cols.T @ cols - np.eye(stop - start))))
    return float(np.max(devs))


@lru_cache(maxsize=None)
def cg_table(two_s: int) -> np.ndarray:
    """Read-only signed Clebsch-Gordan table of spin S = two_s/2, built once
    per spin and refused with ValueError unless orthonormal to CG_TABLE_TOL.

    table[K, c] = (-1)^(S - m_in) <S m_out; S -m_in | K, m_out - m_in> on the
    m-descending basis (m = S - i, so the sign is (-1)^i_in) for the pair
    (i_out, i_in) of entry c of `polar.diagonal_order(2S+1)`: the orders
    q = i_in - i_out = m_out - m_in from 0 to 2S, each by ascending i_out.
    The sign flips whole columns, so the Gram matrices are those of the
    unsigned table.
    """
    order = diagonal_order(two_s + 1)
    table = _cg_recursion(two_s, order.i_out, order.i_in - order.i_out)
    table *= order.signs[order.i_in]
    deviation = CG_DEVIATIONS[two_s] = cg_table_deviation(table)
    if not deviation <= CG_TABLE_TOL:
        raise ValueError(
            f"Clebsch-Gordan table of S={two_s / 2:g} is not orthonormal: "
            f"deviation {deviation:.2e} exceeds {CG_TABLE_TOL:g}"
        )
    table.setflags(write=False)
    return table


def multipole_stack(two_s: int, blocks: np.ndarray) -> np.ndarray:
    """Multipoles rho[n, K, q], q >= 0, of a stack (n, 2S+1, 2S+1) of spin-S
    blocks as rho_Kq = Tr(T_Kq^dag rho) with trace-orthonormal tensors
    T_Kq[m_out, m_in] = (-1)^(S-m_in) <S m_out; S -m_in | K q>.

    T_Kq is nonzero only on the diagonal m_out - m_in = q, so rho_Kq is one
    `polar.diagonal_sums` of the blocks against the signed `cg_table(2S)`,
    real for real blocks.  Normalization matches the quadrature route exactly
    (the dual-route test anchors both conventions).
    """
    if not len(blocks):
        return np.zeros((0, two_s + 1, two_s + 1), dtype=np.result_type(blocks, float))
    return diagonal_sums(blocks, cg_table(two_s))


def multipoles_algebraic(block: ManifoldBlock) -> MultipoleSpectrum:
    """The multipoles of one block: `multipole_stack` on a stack of one."""
    return MultipoleSpectrum(multipole_stack(block.photon_number, block.block[None])[0])
