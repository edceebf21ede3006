"""Numerical invariants of the analysis, each defined once.

Every invariant is a function that returns `(value, bound)`; it holds when
value <= bound, so a NaN value fails.  The tests call these functions on
their own inputs with their own bounds, and `default_suite` evaluates them on
what a default run reports, for `stokes-manifolds check`.
"""

from __future__ import annotations

import numpy as np

from . import multipole
from .fock import ModeState, loss_channel, padded_cutoff, squeezed_thermal, synthesize_mode
from .pipeline import RunConfig, run_sweep
from .polar import ManifoldBlock
from .sphere import FOUR_PI, build_quadrature_grid, husimi_manifold
from .stokes import manifold_stokes_summary


def spherical_harmonic(degree: int, order: int, theta, phi) -> np.ndarray:
    """Orthonormal Y_Kq with Condon-Shortley phase; broadcasts over angles."""
    if degree < 0:
        raise ValueError("degree must be non-negative")
    if abs(order) > degree:
        raise ValueError(f"|order| = {abs(order)} exceeds degree {degree}")
    m = abs(order)
    y = multipole._legendre_rows(m, degree, theta)[-1]
    y = y * np.exp(1j * m * np.asarray(phi, dtype=float))
    if order >= 0:
        return y
    return (-1.0) ** m * np.conj(y)


def harmonic_orthonormality(grid, degrees) -> tuple[float, float]:
    """Largest |sum_grid Y_Kq Y*_K'q' - delta| over every order of the given degrees."""
    th, ph = grid.mesh()
    y = np.array([spherical_harmonic(k, q, th, ph).ravel()
                  for k in degrees for q in range(-k, k + 1)])
    gram = (y * grid.weights.ravel()) @ y.conj().T
    return float(np.max(np.abs(gram - np.eye(len(y))))), 1e-12


def cg_orthonormality(two_s: int) -> tuple[float, float]:
    """Largest |Gram - 1| of the cached Clebsch-Gordan table of 2S, which
    `cg_table` refuses with ValueError above the bound."""
    return multipole.cg_table_deviation(multipole.cg_table(two_s)), multipole.CG_TABLE_TOL


def dual_route_gap(block: ManifoldBlock, grid) -> tuple[float, float]:
    """Largest |rho_Kq(quadrature) - rho_Kq(algebraic)| C_K over K and q >= 0,
    which bounds the gap at -q too, since rho_{K,-q} = (-1)^q conj(rho_Kq) in
    both routes.  The quadrature route divides by C_K = <S S; K 0|S S>, 1.3e-7
    at S = 12, K = 24, so its rounding error grows as 1/C_K; scaled back it
    stays near 1e-14."""
    gap = np.abs(multipole.multipoles_integral(block, grid).rho
                 - multipole.multipoles_algebraic(block).rho)
    return float(np.max(np.max(gap, axis=1) * multipole.stretched_cg(block.photon_number))), 1e-12


def husimi_total_gap(sector, q) -> tuple[float, float]:
    """|integral of the sector's total Q - sum of P_S| over its `spins`."""
    captured = sum(b.weight for b in sector.reported() if b.spin in q.spins)
    return abs(q.integral() - captured), 1e-12


def husimi_parts_gap(sector, q) -> tuple[float, float]:
    """Largest |Q_total - sum_S P_S (2S+1)/(4 pi) Q^(S)| over the grid nodes,
    the sector's total Q, summed from its Fourier rows, against the maps."""
    blocks = [b for b in sector.reported() if b.spin in q.spins]
    parts = sum((b.weight * (b.dim / FOUR_PI) * husimi_manifold(b, q.grid).values
                 for b in blocks), np.zeros((q.grid.n_theta, q.grid.n_phi)))
    return float(np.max(np.abs(q.values - parts))), 1e-13


def husimi_manifold_gap(block: ManifoldBlock, grid) -> tuple[float, float]:
    """|integral of Q^(S) - 4 pi/(2S+1)| for a unit-trace block."""
    return abs(husimi_manifold(block, grid).integral() - FOUR_PI / block.dim), 1e-12


def loss_trace_gap(state, eta: float) -> tuple[float, float]:
    """|Tr L_eta(rho) - Tr rho| of the pure-loss channel."""
    return abs(loss_channel(state, eta).trace - state.trace), 1e-12


def stokes_route_gap(blocks, summaries) -> tuple[float, float]:
    """Largest relative gap in gamma_min and xi^2 between `moment_stack` on
    each block and the sweep's summary of its manifold, from the mode
    diagonals; one `manifold_stokes_summary` of all the blocks.  Each gap is
    relative to max(|block value|, 1 % of its shot-noise value: S/2 for
    gamma_min, 1 for xi^2), so a roundoff 0 (pure squeezed vacuum) is safe."""
    return max((max(abs(s.gamma_min - w.gamma_min) / max(abs(w.gamma_min), 0.005 * w.spin),
                    abs(s.xi2 - w.xi2) / max(abs(w.xi2), 0.01))
                for s, w in zip(summaries, manifold_stokes_summary(blocks), strict=True)),
               default=0.0), 1e-12


def parity_gap(rho_v, blocks, summaries) -> tuple[float, float]:
    """Largest |entry| at odd i - j of the Hermitian V mode and blocks, |rho_Kq| at
    odd q of the blocks and |<S_x>|, |<S_y>| of the summaries: every such block
    entry has a V factor at odd offset, an exact 0.0, so the bound is exactly 0."""
    stacks = {n: np.stack([b.block for b in blocks if b.photon_number == n])
              for n in {b.photon_number for b in blocks}}
    gaps = [s.mean[:2] for s in summaries] + [rho_v.entries[::2, 1::2]]
    gaps += [stack[:, ::2, 1::2] for stack in stacks.values()]
    gaps += [multipole.multipole_stack(n, stack)[..., 1::2] for n, stack in stacks.items()]
    return max(float(np.max(np.abs(g), initial=0.0)) for g in gaps), 0.0


def spin_half_xi2_gap(block: ManifoldBlock) -> tuple[float, float]:
    """|xi^2 - 1| of an S = 1/2 block, which no state can squeeze."""
    return abs(manifold_stokes_summary([block])[0].xi2 - 1.0), 1e-12


def random_block(spin: float, rng) -> ManifoldBlock:
    """A unit-trace block of spin S, m m^dag for an m of random complex normals."""
    dim = round(2 * spin) + 1
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = m @ m.conj().T
    return ManifoldBlock(spin, 1.0, rho / np.trace(rho).real)


def _worst(name: str, pairs) -> tuple[str, float, float]:
    values, bounds = np.array(list(pairs), dtype=float).T
    return name, float(np.max(values)), float(np.min(bounds))


def default_suite() -> list[tuple[str, float, float]]:
    """(name, worst value, bound) of each invariant on what
    `run_sweep(RunConfig())` reports: every reported block on the run's grid
    and against its manifold's Stokes summary, every Clebsch-Gordan table the
    run uses, and the loss channel at the run's padded size and efficiency.
    A real alpha gives real blocks, so the multipole routes also meet random
    complex blocks with 2S <= 4."""
    report = run_sweep(RunConfig())
    config = report.config
    grid = build_quadrature_grid(report.grid_l)
    blocks = [b for res in report.results for b in res.sector.reported()]
    totals = [(res.sector, res.q) for res in report.results]  # the sweep's one Husimi call
    halves = [b for b in blocks if b.spin == 0.5]  # one per sector that holds S = 1/2
    summaries = [s for res in report.results for s in res.manifold_summaries]
    sizes = sorted({b.photon_number for b in blocks})
    top = sizes[-1]
    rng = np.random.default_rng(20240817)
    randoms = [random_block(two_s / 2.0, rng) for two_s in range(1, 5)]
    pad = padded_cutoff(config.cutoff_h)
    on_grid = f"on grid L {report.grid_l}"
    return [
        _worst(f"spherical-harmonic orthonormality, degrees 0, 1, {top - 1}, {top} {on_grid}",
               [harmonic_orthonormality(grid, (0, 1, top - 1, top))]),
        _worst(f"Clebsch-Gordan orthonormality, {len(sizes)} tables 2S <= {top}",
               map(cg_orthonormality, sizes)),
        _worst(f"scaled dual-route multipoles, {len(blocks)} reported blocks {on_grid}",
               (dual_route_gap(b, grid) for b in blocks)),
        _worst(f"scaled dual-route multipoles, {len(randoms)} random complex blocks 2S <= 4",
               (dual_route_gap(b, grid) for b in randoms)),
        _worst(f"total Husimi integral, {len(report.results)} amplitudes {on_grid}",
               (husimi_total_gap(sector, q) for sector, q in totals)),
        _worst(f"total Husimi map against its manifold maps, {len(report.results)} "
               f"amplitudes {on_grid}",
               (husimi_parts_gap(sector, q) for sector, q in totals)),
        _worst(f"manifold Husimi integral, {len(blocks)} reported blocks {on_grid}",
               (husimi_manifold_gap(b, grid) for b in blocks)),
        _worst(f"loss channel trace, thermal state on {pad + 1} levels at eta {config.efficiency}",
               [loss_trace_gap(ModeState(pad, squeezed_thermal(0, 0.7, pad)), config.efficiency)]),
        _worst(f"one-photon manifold xi2 = 1, {len(halves)} amplitudes",
               map(spin_half_xi2_gap, halves)),
        _worst(f"Stokes moments of the mode diagonals against moment_stack, {len(summaries)} "
               "reported blocks", [stokes_route_gap([b for b in blocks if b.spin], summaries)]),
        _worst(f"photon-number parity zeros, V mode, {len(blocks)} reported blocks, their "
               f"multipoles and {len(summaries)} mean Stokes vectors",
               [parity_gap(synthesize_mode(config.noise_model, 0.0, config.cutoff_v),
                           blocks, summaries)]),
    ]
