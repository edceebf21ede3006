"""Parsing a two-mode product state into fixed-photon-number polarization manifolds.

A manifold with N = 2S photons carries a spin-S representation on the basis
|S, m> = |n_H = S + m, n_V = S - m>, ordered m = S, S-1, ..., -S.  Coherences
between different N are invisible to polarization measurements and are
discarded by construction.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .fock import ModeState, _require_hermitian

WEIGHT_FLOOR = 1e-12


def _two_spin(spin: float) -> int:
    """2S of a non-negative half-integer spin S."""
    two_s = round(2 * spin)
    if abs(2 * spin - two_s) > 1e-9 or two_s < 0:
        raise ValueError(f"spin must be a non-negative half-integer, got {spin}")
    return two_s


@dataclass(frozen=True)
class ManifoldBlock:
    """Unit-trace block of the spin-S manifold with its probability weight.

    `truncated` marks manifolds whose basis straddles a mode cutoff;
    `negligible` marks weights below the floor, which stay unnormalized and
    are excluded from squeezing and multipole reports.
    """

    spin: float
    weight: float
    block: np.ndarray
    truncated: bool = False
    negligible: bool = False

    def __post_init__(self):
        block = np.asarray(self.block, dtype=complex)
        dim = _two_spin(self.spin) + 1
        if block.shape != (dim, dim):
            raise ValueError(f"block must be {dim}x{dim}, got {block.shape}")
        if not self.negligible:
            block = _require_hermitian(block, "ManifoldBlock")
            tr = np.real(np.trace(block))
            if abs(tr - 1.0) > 1e-10:
                raise ValueError(f"block trace {tr} is not 1")
        block.setflags(write=False)
        object.__setattr__(self, "block", block)

    @property
    def photon_number(self) -> int:
        return round(2 * self.spin)

    @property
    def dim(self) -> int:
        return self.photon_number + 1


@dataclass(frozen=True)
class PolarizationSector:
    """Blocks for S = 0, 1/2, 1, ... with their weights P_S."""

    blocks: tuple[ManifoldBlock, ...]

    def __post_init__(self):
        spins = [b.spin for b in self.blocks]
        if any(b - a != 0.5 for a, b in zip(spins, spins[1:])):
            raise ValueError("block spins must increase in steps of 1/2")

    @property
    def captured(self) -> float:
        """Total probability caught by the parsed manifolds."""
        return float(sum(b.weight for b in self.blocks))

    def reported(self, max_spin: float | None = None) -> tuple[ManifoldBlock, ...]:
        """Blocks that enter reports: above the weight floor, complete, and
        (optionally) no larger than max_spin."""
        out = []
        for b in self.blocks:
            if b.negligible or b.truncated:
                continue
            if max_spin is not None and b.spin > max_spin + 1e-9:
                continue
            out.append(b)
        return tuple(out)

    def restricted(self, max_spin: float) -> "PolarizationSector":
        return PolarizationSector(
            tuple(b for b in self.blocks if b.spin <= max_spin + 1e-9)
        )


def parse_manifolds(rho_h: ModeState, rho_v: ModeState,
                    weight_floor: float = WEIGHT_FLOOR) -> PolarizationSector:
    """Extract the block-diagonal polarization sector of the product state
    rho_H (x) rho_V.

    Each block is gathered straight from the two modes,
    block_N[i, j] = rho_H[n_i, n_j] rho_V[N - n_i, N - n_j] with n_i = N - i,
    so the two-mode matrix is never formed.  Basis states outside either mode
    cutoff carry zero amplitude, so incomplete manifolds keep zero rows in the
    full (2S+1)-dimensional block and are flagged as truncated.
    """
    ch, cv = rho_h.cutoff, rho_v.cutoff
    blocks = []
    for n_total in range(ch + cv + 1):
        n_h = np.arange(n_total, -1, -1)  # m descending
        n_v = n_total - n_h
        valid = (n_h <= ch) & (n_v <= cv)
        dim = n_total + 1
        block = np.zeros((dim, dim), dtype=complex)
        pos = np.nonzero(valid)[0]
        h, v = n_h[pos], n_v[pos]
        block[np.ix_(pos, pos)] = rho_h.entries[np.ix_(h, h)] * rho_v.entries[np.ix_(v, v)]
        weight = float(np.real(np.trace(block)))
        truncated = not valid.all()
        if weight > weight_floor:
            blocks.append(
                ManifoldBlock(n_total / 2.0, weight, block / weight, truncated=truncated)
            )
        else:
            blocks.append(
                ManifoldBlock(
                    n_total / 2.0, max(weight, 0.0), block, truncated=truncated, negligible=True
                )
            )
    return PolarizationSector(tuple(blocks))


def photon_number_distribution(sector: PolarizationSector) -> list[tuple[int, float]]:
    """Pairs (N, P_N) over all parsed manifolds."""
    return [(b.photon_number, b.weight) for b in sector.blocks]


def sector_to_json_dict(sector: PolarizationSector) -> dict:
    """JSON-ready dump: per manifold S, the weight and the block as nested
    [re, im] pairs in m-descending order."""
    manifolds = []
    for b in sector.blocks:
        manifolds.append(
            {
                "S": b.spin,
                "N": b.photon_number,
                "P": b.weight,
                "truncated": b.truncated,
                "negligible": b.negligible,
                "block": [
                    [[float(z.real), float(z.imag)] for z in row] for row in b.block
                ],
            }
        )
    return {"captured": sector.captured, "manifolds": manifolds}


def dump_sector(sector: PolarizationSector, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(sector_to_json_dict(sector), fh, indent=1, sort_keys=True)
        fh.write("\n")
