"""Parsing a two-mode product state into fixed-photon-number polarization manifolds.

A manifold with N = 2S photons carries a spin-S representation on the basis
|S, m> = |n_H = S + m, n_V = S - m>, ordered m = S, S-1, ..., -S.  Coherences
between different N are invisible to polarization measurements and are
discarded by construction.  Nothing here formats or writes a file: the
sector dump is `pipeline.dump_sector`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .fock import ModeState, float_or_complex, require_hermitian

WEIGHT_FLOOR = 1e-12


def check_blocks(spin: float, blocks: np.ndarray) -> np.ndarray:
    """The one check of manifold blocks, on a stack (n, dim, dim) of blocks of
    one spin S: 2S a non-negative integer, dim = 2S + 1, and each block
    Hermitian to HERMITICITY_TOL with unit trace to 1e-10.  Returns the
    Hermitian parts, of the stack's dtype; a ValueError names the first block
    that fails, a NaN included.
    """
    two_s = round(2 * spin)
    if abs(2 * spin - two_s) > 1e-9 or two_s < 0:
        raise ValueError(f"spin must be a non-negative half-integer, got {spin}")
    dim = two_s + 1
    if blocks.shape[1:] != (dim, dim):
        raise ValueError(f"block must be {dim}x{dim}, got {blocks.shape[1:]}")
    blocks = require_hermitian(blocks, "ManifoldBlock")
    trace = np.trace(blocks, axis1=1, axis2=2).real
    bad = ~(np.abs(trace - 1.0) <= 1e-10)  # a NaN trace fails too
    if bad.any():
        raise ValueError(f"block trace {trace[bad][0]} is not 1")
    return blocks


@dataclass(frozen=True)
class ManifoldBlock:
    """Unit-trace block of the spin-S manifold with its probability weight.

    The block is checked by `check_blocks` as a stack of one, and held as
    float64 if it is real, complex128 if not.
    """

    spin: float
    weight: float
    block: np.ndarray

    def __post_init__(self):
        block = check_blocks(self.spin, float_or_complex(self.block)[None])[0]
        block.setflags(write=False)
        object.__setattr__(self, "block", block)

    @classmethod
    def _checked(cls, spin: float, weight: float, block: np.ndarray):
        """A block that `check_blocks` has passed, read-only, built without
        checking it again."""
        self = object.__new__(cls)
        self.__dict__.update(spin=spin, weight=weight, block=block)
        return self

    @property
    def photon_number(self) -> int:
        return round(2 * self.spin)

    @property
    def dim(self) -> int:
        return self.photon_number + 1


@dataclass(frozen=True)
class PolarizationSector:
    """The manifold blocks of a state in increasing spin, each with its weight
    P_S; a parsed sector holds only the manifolds above WEIGHT_FLOOR, so its
    spins may skip values (a pure alpha = 0 state has only even N)."""

    blocks: tuple[ManifoldBlock, ...]

    def __post_init__(self):
        spins = [b.spin for b in self.blocks]
        if any(b <= a for a, b in zip(spins, spins[1:])):
            raise ValueError("block spins must increase")

    def reported(self, max_spin: float | None = None) -> tuple[ManifoldBlock, ...]:
        """The blocks no larger than max_spin, every block if it is None."""
        return tuple(b for b in self.blocks if max_spin is None or b.spin <= max_spin + 1e-9)


class DiagonalOrder(NamedTuple):
    """Read-only arrays of a dim x dim block, dim = 2S + 1, that depend on its
    size alone.

    The upper triangle in diagonal-major order: by q = i_in - i_out from 0 to
    dim - 1, then by ascending i_out.  Entry c is block[i_out[c], i_in[c]], at
    flat index `pairs[c]` = i_out dim + i_in, and `starts[q]` is the first
    entry of diagonal q.

    The spin ladders of the m-descending basis m_i = S - i, each of length
    O(dim): `m` and `m2` = m_i^2; with c_i = sqrt(S(S+1) - m_i(m_i+1)),
    `c` = c_i and `zc` = (2 m_i + 1) c_i for i >= 1 (the weights of diagonal
    -1) and `cc` = c_i c_{i-1} for i >= 2 (diagonal -2); and `signs` =
    (-1)^i = (-1)^(S - m_i).
    """

    i_out: np.ndarray
    i_in: np.ndarray
    pairs: np.ndarray
    starts: np.ndarray
    m: np.ndarray
    m2: np.ndarray
    c: np.ndarray
    zc: np.ndarray
    cc: np.ndarray
    signs: np.ndarray


@lru_cache(maxsize=None)
def diagonal_order(dim: int) -> DiagonalOrder:
    """The per-size arrays of a dim x dim block, built once per size."""
    q = np.repeat(np.arange(dim), np.arange(dim, 0, -1))  # dim - q entries on diagonal q
    starts = np.searchsorted(q, np.arange(dim))
    i_out = np.arange(len(q)) - starts[q]
    i_in = i_out + q
    spin = (dim - 1) / 2.0
    m = spin - np.arange(dim)
    c = np.sqrt(spin * (spin + 1) - m * (m + 1))
    order = DiagonalOrder(
        i_out, i_in, i_out * dim + i_in, starts, m, m**2, c[1:],
        (2 * m[1:] + 1) * c[1:], c[2:] * c[1:-1], (-1.0) ** np.arange(dim),
    )
    for array in order:
        array.setflags(write=False)
    return order


# bytes of the products one step of `diagonal_sums` forms, give or take one
# q segment (counted as complex, whatever the dtype)
CONTRACTION_BYTES = 1 << 20


def _segment_runs(order: DiagonalOrder, count: int, rows: int) -> list[tuple[int, int]]:
    """[first, last) runs of the q segments of `order` that `diagonal_sums`
    contracts at once for `count` blocks and a table of `rows` rows: runs of
    about CONTRACTION_BYTES of products, cut where a segment starts."""
    width = max(CONTRACTION_BYTES // (16 * count * rows), 1)
    if width >= len(order.pairs):
        return [(0, len(order.starts))]
    # the segment of each width-th entry, ascending; the first of each run of
    # equals starts a run (np.unique would import numpy.ma)
    firsts = np.searchsorted(order.starts, np.arange(0, len(order.pairs), width), "right") - 1
    firsts = firsts[np.diff(firsts, prepend=-1) > 0].tolist()
    return list(zip(firsts, [*firsts[1:], len(order.starts)]))


def diagonal_sums(blocks: np.ndarray, table: np.ndarray) -> np.ndarray:
    """sums[n, r, q] = sum_c table[r, c] block_n[i_out[c], i_in[c]] over the
    entries c of diagonal q of `diagonal_order(dim)`, for a non-empty stack
    (n, dim, dim) of blocks and a real (rows, entries) table, of the dtype
    `np.result_type(blocks, table)`.  Each block's upper triangle is gathered
    once; each run of q segments (`_segment_runs`) is one product and one
    `reduceat`, so about CONTRACTION_BYTES are held whatever the stack or the
    table, and each sum adds the same numbers in the same order as for a
    block alone."""
    count, dim = len(blocks), blocks.shape[-1]
    order = diagonal_order(dim)
    columns = blocks.reshape(count, -1)[:, order.pairs]
    bounds = [*order.starts.tolist(), len(order.pairs)]
    sums = np.empty((count, len(table), dim), dtype=np.result_type(blocks, table))
    for first, last in _segment_runs(order, count, len(table)):
        start, stop = bounds[first], bounds[last]
        np.add.reduceat(table[:, start:stop] * columns[:, None, start:stop],
                        order.starts[first:last] - start, axis=2, out=sums[:, :, first:last])
    return sums


def report_photons(max_spin: float, cutoff_h: int, cutoff_v: int) -> int:
    """Largest photon number N = 2S of a report up to S = max_spin; a
    ValueError if it passes either mode cutoff."""
    top = math.floor(2 * max_spin + 1e-9)
    if top > min(cutoff_h, cutoff_v):
        raise ValueError(f"S_report_max={max_spin} needs photon numbers up to {top} in "
                         f"both modes; cutoffs are ({cutoff_h}, {cutoff_v})")
    return top


def convolve(f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """(f * g)[..., N] = sum_n f[..., n] g[..., N - n] along the last axes, the
    others broadcast: f dotted with row N of windows onto one padded, reversed
    copy of g, so each N sums alike whatever else is convolved with it."""
    size = f.shape[-1]
    padded = np.pad(g, [(0, 0)] * (g.ndim - 1) + [(size - 1, size - 1)])[..., ::-1].copy()
    windows = np.lib.stride_tricks.sliding_window_view(padded, size, axis=-1)[..., ::-1, :]
    return np.vecdot(f.conj()[..., None, :], windows)


def photon_weights(h: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The one P_N: (p_H * p_V)[N] of the photon-number distributions of each
    H mode of the stack h with the V mode's entries v, over every N the
    cutoffs hold, roundoff below 0 clamped to 0, and its mask P_N > WEIGHT_FLOOR."""
    p_h = np.diagonal(h, 0, 1, 2).real.copy()  # contiguous: a strided dot sums otherwise
    weights = np.maximum(convolve(p_h, np.diagonal(v).real), 0.0)
    return weights, weights > WEIGHT_FLOOR


class ManifoldLayer(NamedTuple):
    """Manifold N of the amplitudes of a sweep that are live at N, from
    `gather_manifolds`: their weights P_N (live,), the mask (n,) of the
    amplitudes whose P_N is above WEIGHT_FLOOR, and their blocks divided by P_N
    and checked (live, dim, dim), read-only."""

    photons: int
    weights: np.ndarray
    live: np.ndarray
    blocks: np.ndarray


def gather_manifolds(h: np.ndarray, v: np.ndarray, n_total: int,
                     weights: np.ndarray, live: np.ndarray) -> ManifoldLayer:
    """Manifold N of rho_H (x) rho_V for the H modes of the stack h
    (n, cutoff_H + 1, cutoff_H + 1) that are live at N, with the V mode's
    entries v, N no larger than either cutoff, from the weights P_N (n,) and
    mask of `photon_weights`.  No block below the weight floor is gathered.

    Block N is gathered straight from the two modes,
    block_N[i, j] = rho_H[n_i, n_j] rho_V[N - n_i, N - n_j] with n_i = N - i:
    a reversed slice of each live H mode times one slice of rho_V.  The
    blocks are divided by P_N and checked as one stack, so their unit trace
    cross-checks P_N.  They are real if both modes are.
    """
    # n_i = N - i runs down from N in rho_H while N - n_i = i runs up in rho_V
    raw = h[live, n_total::-1, n_total::-1] * v[:n_total + 1, :n_total + 1]
    weights = weights[live]
    blocks = check_blocks(n_total / 2.0, raw / weights[:, None, None])
    blocks.setflags(write=False)
    return ManifoldLayer(n_total, weights, live, blocks)


def sectors(layers, count: int) -> list[PolarizationSector]:
    """The sector of each of `count` amplitudes from the layers of one sweep,
    in increasing N: its live blocks, each a view of the layer's checked
    arrays."""
    columns = [[] for _ in range(count)]
    for layer in layers:
        spin = layer.photons / 2.0
        for a, weight, block in zip(np.flatnonzero(layer.live).tolist(), layer.weights.tolist(),
                                    layer.blocks):
            columns[a].append(ManifoldBlock._checked(spin, weight, block))
    return [PolarizationSector(tuple(column)) for column in columns]


def parse_manifolds(rho_h: ModeState, rho_v: ModeState, max_spin: float) -> PolarizationSector:
    """The blocks above WEIGHT_FLOOR among N = 0..2 max_spin of the
    block-diagonal polarization sector of the product state rho_H (x) rho_V:
    `photon_weights`, then `gather_manifolds` at each live N, on a stack of
    one H mode.  Every gathered manifold lies inside both mode cutoffs, so
    every block is complete.
    """
    top = report_photons(max_spin, rho_h.cutoff, rho_v.cutoff)
    h = rho_h.entries[None]
    weights, live = photon_weights(h, rho_v.entries)
    return sectors([gather_manifolds(h, rho_v.entries, n, weights[:, n], live[:, n])
                    for n in np.flatnonzero(live[0, :top + 1]).tolist()], 1)[0]
