"""Numerical invariants of the analysis, each defined once.

Every invariant is a function that returns `(value, bound)`; it holds when
value <= bound, so a NaN value fails.  The tests call them on their own inputs,
and `suite` on what a sweep reports, for `stokes-manifolds check`, stacking each
2S once and forming its Husimi rows and multipoles once for every line.
"""

from __future__ import annotations

import numpy as np

from . import multipole
from .fock import ModeState, loss_channel, padded_cutoff, squeezed_thermal
from .polar import ManifoldBlock
from .sphere import (FOUR_PI, QFunction, build_quadrature_grid, fourier_table, husimi_maps,
                     husimi_rows)
from .stokes import manifold_stokes_summary


def harmonic_gram(grid, degrees, legendre) -> np.ndarray:
    """Gram matrix sum_grid w Y_Kq Y*_K'q' of the orders q = -K..K of the degrees, from
    a `multipole.legendre_table` of the theta nodes.  Y_Kq = P_Kq(theta) e^{iq phi} with
    Y_K,-q = (-1)^q conj(Y_Kq) factors, as a grid's weights w[:, 0] at every phi node do,
    so it is a theta Gram times a phi Gram, and no array has a (theta, phi) mesh axis."""
    k, q = np.array([(k, q) for k in degrees for q in range(-k, k + 1)]).T
    y_theta = legendre[np.abs(q), k]
    y_phi = np.exp(1j * np.outer(np.abs(q), grid.phi))
    y_phi[q < 0] = (-1.0) ** q[q < 0, None] * y_phi[q < 0].conj()
    return ((y_theta * grid.weights[:, 0]) @ y_theta.T) * (y_phi @ y_phi.conj().T)


def harmonic_orthonormality(grid, degrees, legendre) -> tuple[float, float]:
    """Largest |Gram - 1| of the `harmonic_gram` of a Legendre table to max(degrees)."""
    gram = harmonic_gram(grid, degrees, legendre)
    return float(np.max(np.abs(gram - np.eye(len(gram))))), 1e-12


def cg_orthonormality(two_s: int) -> tuple[float, float]:
    """Largest |Gram - 1| of the cached Clebsch-Gordan table of 2S, as `cg_table` measured
    it when it built the table, refusing it with ValueError above the bound."""
    multipole.cg_table(two_s)
    return multipole.CG_DEVIATIONS[two_s], multipole.CG_TABLE_TOL


def dual_route_gap(algebraic, integral) -> tuple[float, float]:
    """Largest |rho_Kq(quadrature) - rho_Kq(algebraic)| C_K over K, q >= 0 and the
    blocks of multipoles rho[..., K, q] of one size; it bounds the gap at -q too, as
    rho_{K,-q} = (-1)^q conj(rho_Kq).  The quadrature route divides by
    C_K = <S S; K 0|S S> (1.3e-7 at S = 12, K = 24): scaled back, it is near 1e-14."""
    gap = np.abs(integral - algebraic)
    return float(np.max(np.max(gap, axis=-1) * multipole.stretched_cg(gap.shape[-1] - 1))), 1e-12


def husimi_total_gap(sector, q) -> tuple[float, float]:
    """|integral of the sector's total Q - sum of P_S| over its `spins`."""
    captured = sum(b.weight for b in sector.reported() if b.spin in q.spins)
    return abs(q.integral() - captured), 1e-12


def husimi_parts_gap(q, parts) -> tuple[float, float]:
    """Largest |Q_total - parts| over the grid nodes, a total Q, summed from its Fourier
    rows, against the parts sum_S P_S (2S+1)/(4 pi) Q^(S) of its blocks' maps."""
    return float(np.max(np.abs(q.values - parts))), 1e-13


def husimi_manifold_gap(block: ManifoldBlock, q) -> tuple[float, float]:
    """|integral of Q^(S) - 4 pi/(2S+1)| of the map q of a unit-trace block."""
    return abs(q.integral() - FOUR_PI / block.dim), 1e-12


def loss_trace_gap(state, eta: float) -> tuple[float, float]:
    """|Tr L_eta(rho) - Tr rho| of the pure-loss channel."""
    return abs(loss_channel(state, eta).trace - state.trace), 1e-12


def stokes_route_gap(block_summaries, summaries) -> tuple[float, float]:
    """Largest relative gap in gamma_min and xi^2 between block-route summaries
    (`manifold_stokes_summary`) and the sweep's, from the mode diagonals, of
    the same manifolds.  Each gap is relative to max(|block value|, 1 % of its
    shot-noise value: S/2 for gamma_min, 1 for xi^2), so a roundoff 0 (pure
    squeezed vacuum) is safe."""
    return max((max(abs(s.gamma_min - w.gamma_min) / max(abs(w.gamma_min), 0.005 * w.spin),
                    abs(s.xi2 - w.xi2) / max(abs(w.xi2), 0.01))
                for s, w in zip(summaries, block_summaries, strict=True)),
               default=0.0), 1e-12


def parity_gap(rho_v, stacks, multipoles, summaries) -> tuple[float, float]:
    """Largest |entry| at odd i - j of the Hermitian V mode and the stacks of blocks of
    one size, |rho_Kq| at odd q of their multipoles and |<S_x>|, |<S_y>| of the
    summaries: every such block entry has a V factor at odd offset, an exact 0.0."""
    gaps = [s.mean[:2] for s in summaries] + [rho_v.entries[::2, 1::2]]
    gaps += [stack[:, ::2, 1::2] for stack in stacks] + [rho[..., 1::2] for rho in multipoles]
    return max(float(np.max(np.abs(g), initial=0.0)) for g in gaps), 0.0


def spin_half_xi2_gap(summary) -> tuple[float, float]:
    """|xi^2 - 1| of the summary of an S = 1/2 block, which no state can squeeze."""
    return abs(summary.xi2 - 1.0), 1e-12


def random_block(spin: float, rng) -> ManifoldBlock:
    """A unit-trace block of spin S, m m^dag for an m of random complex normals."""
    dim = round(2 * spin) + 1
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = m @ m.conj().T
    return ManifoldBlock(spin, 1.0, rho / np.trace(rho).real)


def _worst(name: str, pairs) -> tuple[str, float, float]:
    """Largest value and smallest bound of the pairs; 0 and inf for none."""
    values, bounds = np.array(list(pairs), dtype=float).reshape(-1, 2).T
    return name, float(np.max(values, initial=0.0)), float(np.min(bounds, initial=np.inf))


def suite(report) -> list[tuple[str, float, float]]:
    """(name, worst value, bound) of each invariant on what a `RunReport` holds, its
    blocks, total Qs, summaries and V mode: one Legendre and one `fourier_table`, one
    pass per reported 2S, each map summed into its amplitude's parts and dropped, and
    random complex blocks, 2S <= 4, for the dual route, as real alphas give real
    blocks.  A line with nothing to check holds at worst 0."""
    grid = build_quadrature_grid(report.grid_l)
    kept = [res for res in report.results if res.sector is not None]  # all or none
    owned = [(a, b) for a, res in enumerate(kept) for b in res.sector.reported()]
    block_summaries = manifold_stokes_summary([b for _, b in owned if b.spin])
    halves = [s for s in block_summaries if s.spin == 0.5]  # one per sector that holds S = 1/2
    summaries = [s for res in report.results for s in res.manifold_summaries]
    sizes = sorted({b.photon_number for _, b in owned})
    top = max(sizes, default=0)
    degrees = sorted({0, 1, max(top - 1, 0), top})
    rng = np.random.default_rng(20240817)
    randoms = [random_block(n / 2.0, rng) for n in range(1, min(4, grid.exactness // 2) + 1)]
    legendre = multipole.legendre_table(max(top, len(randoms)), grid.theta)
    table = fourier_table(top + 1, grid)
    parts = {a: np.zeros(res.q.values.shape) for a, res in enumerate(kept) if res.q is not None}
    stacks, rhos, dual, integrals = [], [], [], []
    for n in sizes:
        group = [(a, b) for a, b in owned if b.photon_number == n]
        stacks.append(np.stack([b.block for _, b in group]))
        rhos.append(multipole.multipole_stack(n, stacks[-1]))
        rows = husimi_rows(stacks[-1], grid)  # [block, theta, q]
        integral = multipole.quadrature_multipoles(rows, grid, legendre)
        dual.append(dual_route_gap(rhos[-1], integral))
        for (a, b), values in zip(group, husimi_maps(rows, table)):
            integrals.append(husimi_manifold_gap(b, QFunction(grid, values)))
            if a in parts:
                parts[a] += b.weight * (b.dim / FOUR_PI) * values
    model, pad = report.config.noise_model, padded_cutoff(report.config.cutoff_h)
    core = ModeState(pad, squeezed_thermal(model.squeeze_parameter, model.thermal_occupation, pad))
    on_grid = f"on grid L {report.grid_l}"
    return [
        _worst(f"spherical-harmonic orthonormality, degrees {', '.join(map(str, degrees))} "
               f"{on_grid}", [harmonic_orthonormality(grid, degrees, legendre)]),
        _worst(f"Clebsch-Gordan orthonormality, {len(sizes)} tables 2S <= {top}",
               map(cg_orthonormality, sizes)),
        _worst(f"scaled dual-route multipoles, {len(owned)} reported blocks {on_grid}", dual),
        _worst(f"scaled dual-route multipoles, {len(randoms)} random complex blocks "
               f"2S <= {len(randoms)}", (dual_route_gap(multipole.multipoles_algebraic(b).rho,
               multipole.quadrature_multipoles(husimi_rows(b.block[None], grid), grid, legendre))
               for b in randoms)),
        _worst(f"total Husimi integral, {len(parts)} amplitudes {on_grid}",
               (husimi_total_gap(kept[a].sector, kept[a].q) for a in parts)),
        _worst(f"total Husimi map against its manifold maps, {len(parts)} amplitudes {on_grid}",
               (husimi_parts_gap(kept[a].q, p) for a, p in parts.items())),
        _worst(f"manifold Husimi integral, {len(owned)} reported blocks {on_grid}", integrals),
        _worst(f"loss channel trace, the run's squeezed thermal core on {pad + 1} levels at eta "
               f"{model.efficiency:g}", [loss_trace_gap(core, model.efficiency)]),
        _worst(f"one-photon manifold xi2 = 1, {len(halves)} amplitudes",
               map(spin_half_xi2_gap, halves)),
        _worst(f"Stokes moments of the mode diagonals against moment_stack, "
               f"{len(block_summaries)} reported blocks",
               [stokes_route_gap(block_summaries, summaries if kept else [])]),
        _worst(f"photon-number parity zeros, V mode, {len(owned)} reported blocks, their "
               f"multipoles and {len(summaries)} mean Stokes vectors",
               [parity_gap(report.rho_v, stacks, rhos, summaries)]),
    ]
