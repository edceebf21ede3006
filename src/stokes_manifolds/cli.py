"""Command-line entry point.

`stokes-manifolds run` sweeps the coherent amplitudes and writes figure-data
files; `stokes-manifolds check` runs `invariants.suite` on the default sweep.
Exit codes: 0 success, 1 config error, 2 numerical guard or failed invariant,
3 I/O failure.
"""

from __future__ import annotations

import argparse
import sys
import time

from .pipeline import (
    CONFIG_KEYS,
    EMIT_CHOICES,
    ConfigError,
    NumericalGuardError,
    emit_figure_tables,
    parse_config,
    run_sweep,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stokes-manifolds",
        description="Polarization-manifold analysis of two-mode squeezed states",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run an amplitude sweep and emit files")
    run.add_argument("--config", help="JSON config document")
    run.add_argument("--alpha", help="comma-separated coherent amplitudes")
    # flags with a dest are named by their config key and pass through as given
    run.add_argument("--sq-db", dest="squeezing_db", type=float, help="squeezing level in dB")
    run.add_argument("--anti-db", dest="antisqueezing_db", type=float,
                     help="anti-squeezing level in dB")
    run.add_argument("--eta", dest="efficiency", type=float, help="detection efficiency in [0, 1]")
    run.add_argument("--cutoff", type=int, help="photon-number cutoff for both modes")
    run.add_argument("--grid-l", dest="grid_l", type=int, help="spherical quadrature exactness")
    run.add_argument("--out", dest="out_dir", help="output directory")
    run.add_argument("--emit", help=f"comma-separated subset of {','.join(EMIT_CHOICES)}")

    sub.add_parser("check", help="run the built-in invariant suite")
    return parser


def _overrides_from_args(args) -> dict:
    overrides = {k: v for k, v in vars(args).items() if k in CONFIG_KEYS}
    if args.alpha is not None:
        try:
            overrides["alphas"] = tuple(float(a) for a in args.alpha.split(","))
        except ValueError as exc:
            raise ConfigError(f"bad --alpha list: {exc}") from exc
    if args.cutoff is not None:
        overrides["cutoff_h"] = overrides["cutoff_v"] = args.cutoff
    if args.emit is not None:
        overrides["emit"] = tuple(s for s in args.emit.split(",") if s)
    return overrides


def _cmd_run(args) -> int:
    t0 = time.perf_counter()
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
          f"in {time.perf_counter() - t0:.2f}s")
    for res in report.results:
        print(f"alpha={res.alpha:g}: xi2_total={res.total.xi2:.6g} "
              f"({res.total.xi2_db:+.3f} dB), trace deficit {res.trace_deficit:.3g}")
    return 0


def _cmd_check(_args) -> int:
    from .invariants import suite  # imported here, so that `run` never loads the suite
    try:
        results = suite(run_sweep(parse_config()))
    except NumericalGuardError as exc:  # the default run's own guards
        print(f"numerical guard: {exc}", file=sys.stderr)
        return 2
    failed = 0
    for name, worst, bound in results:
        ok = worst <= bound
        failed += not ok
        print(f"[{'ok' if ok else 'FAIL'}] {name}: worst {worst:.2e}, bound {bound:g}")
    if failed:
        print(f"{failed} of {len(results)} checks failed", file=sys.stderr)
        return 2
    print(f"all {len(results)} checks passed")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    return _cmd_check(args)


if __name__ == "__main__":
    sys.exit(main())
