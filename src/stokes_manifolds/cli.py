"""Command-line entry point.

`stokes-manifolds run` performs a sweep over coherent amplitudes and writes
figure-data files; `stokes-manifolds check` runs a built-in invariant suite.
Exit codes: 0 success, 1 config error, 2 numerical guard or failed invariant,
3 I/O failure.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from .fock import NoiseModel, loss_channel, synthesize_mode, thermal_state
from .multipole import (
    cg_table,
    cg_table_deviation,
    multipoles_algebraic,
    multipoles_integral,
    spherical_harmonic,
)
from .polar import ManifoldBlock, parse_manifolds
from .pipeline import (
    EMIT_CHOICES,
    ConfigError,
    NumericalGuardError,
    emit_figure_tables,
    parse_config,
    run_sweep,
)
from .sphere import build_quadrature_grid, husimi_manifold, husimi_total
from .stokes import manifold_stokes_summary


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stokes-manifolds",
        description="Polarization-manifold analysis of two-mode squeezed states",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run an amplitude sweep and emit files")
    run.add_argument("--config", help="JSON config document")
    run.add_argument("--alpha", help="comma-separated coherent amplitudes")
    run.add_argument("--sq-db", type=float, help="squeezing level in dB")
    run.add_argument("--anti-db", type=float, help="anti-squeezing level in dB")
    run.add_argument("--eta", type=float, help="detection efficiency in [0, 1]")
    run.add_argument("--cutoff", type=int, help="photon-number cutoff for both modes")
    run.add_argument("--grid-l", type=int, help="spherical quadrature exactness")
    run.add_argument("--out", help="output directory")
    run.add_argument("--emit", help=f"comma-separated subset of {','.join(EMIT_CHOICES)}")

    sub.add_parser("check", help="run the built-in invariant suite")
    return parser


def _overrides_from_args(args) -> dict:
    overrides: dict = {}
    if args.alpha is not None:
        try:
            overrides["alphas"] = tuple(float(a) for a in args.alpha.split(","))
        except ValueError as exc:
            raise ConfigError(f"bad --alpha list: {exc}") from exc
    if args.sq_db is not None:
        overrides["squeezing_db"] = args.sq_db
    if args.anti_db is not None:
        overrides["antisqueezing_db"] = args.anti_db
    if args.eta is not None:
        overrides["efficiency"] = args.eta
    if args.cutoff is not None:
        overrides["cutoff_h"] = args.cutoff
        overrides["cutoff_v"] = args.cutoff
    if args.grid_l is not None:
        overrides["grid_l"] = args.grid_l
    if args.out is not None:
        overrides["out_dir"] = args.out
    if args.emit is not None:
        overrides["emit"] = tuple(s for s in args.emit.split(",") if s)
    return overrides


def _cmd_run(args) -> int:
    try:
        config = parse_config(args.config, _overrides_from_args(args))
        report = run_sweep(config)
        manifest = emit_figure_tables(report, config.out_dir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except NumericalGuardError as exc:
        print(f"numerical guard: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 3
    print(f"wrote {len(manifest['files'])} files to {config.out_dir} "
          f"in {report.wall_clock:.2f}s")
    for res in report.results:
        print(f"alpha={res.alpha:g}: xi2_total={res.total.xi2:.6g} "
              f"({res.total.xi2_db:+.3f} dB), trace deficit {res.trace_deficit:.3g}")
    return 0


def _cmd_check(_args) -> int:
    checks = []

    def check(name, ok, detail=""):
        checks.append(ok)
        status = "ok" if ok else "FAIL"
        print(f"[{status}] {name}" + (f" ({detail})" if detail else ""))

    grid = build_quadrature_grid(24)
    th, ph = grid.mesh()
    worst = 0.0
    for k1, q1, k2, q2 in ((0, 0, 0, 0), (3, 1, 3, 1), (5, -2, 5, -2), (4, 2, 6, 2), (7, 3, 7, -3)):
        val = grid.integrate(
            spherical_harmonic(k1, q1, th, ph) * np.conj(spherical_harmonic(k2, q2, th, ph))
        )
        want = 1.0 if (k1, q1) == (k2, q2) else 0.0
        worst = max(worst, abs(val - want))
    check("spherical-harmonic orthonormality", worst < 1e-12, f"max dev {worst:.2e}")

    try:
        dev = cg_table_deviation(cg_table(24))
        check("Clebsch-Gordan table orthonormality (2S=24)", True, f"max dev {dev:.2e}")
    except ValueError as exc:
        check("Clebsch-Gordan table orthonormality (2S=24)", False, str(exc))

    rng = np.random.default_rng(20240817)
    worst = 0.0
    for two_j in (1, 2, 3, 4):
        dim = two_j + 1
        m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        rho = m @ m.conj().T
        rho /= np.trace(rho).real
        block = ManifoldBlock(two_j / 2.0, 1.0, rho)
        sp_a = multipoles_algebraic(block)
        sp_i = multipoles_integral(block, grid)
        for ca, ci in zip(sp_a.coefficients, sp_i.coefficients):
            worst = max(worst, float(np.max(np.abs(ca - ci))))
    check("dual-route multipoles", worst < 1e-8, f"max dev {worst:.2e}")

    state = thermal_state(0.7, 20)
    tr0 = state.trace
    tr1 = loss_channel(state, 0.37).trace
    check("loss channel trace preservation", abs(tr1 - tr0) < 1e-12, f"dev {abs(tr1 - tr0):.2e}")

    model = NoiseModel(3.6, 4.4, 0.85)
    rho_h = synthesize_mode(model, 1.13, 16)
    rho_v = synthesize_mode(model, 0.0, 16)
    sector = parse_manifolds(rho_h, rho_v)
    q = husimi_total(sector, grid, max_spin=6.0)
    target = sum(b.weight for b in sector.reported(6.0))
    dev = abs(q.integral() - target)
    check("total Husimi normalization", dev < 1e-8, f"dev {dev:.2e}")

    block = next(b for b in sector.blocks if b.spin == 0.5)
    xi2 = manifold_stokes_summary(block).xi2
    check("one-photon manifold unsqueezed", abs(xi2 - 1.0) < 1e-6, f"xi2 {xi2:.9f}")

    block = next(b for b in sector.blocks if b.spin == 2.0)
    qm = husimi_manifold(block, grid)
    dev = abs(qm.integral() - 4.0 * math.pi / 5.0)
    check("manifold Husimi normalization", dev < 1e-8, f"dev {dev:.2e}")

    if all(checks):
        print(f"all {len(checks)} checks passed")
        return 0
    print(f"{checks.count(False)} of {len(checks)} checks failed", file=sys.stderr)
    return 2


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    return _cmd_check(args)


if __name__ == "__main__":
    sys.exit(main())
