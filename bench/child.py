"""One child process of the benchmark.

    child.py cli <record.json> [--trace] [-- <stokes-manifolds arguments>]
        One cold `stokes-manifolds` invocation, as the console script makes it.
        Without arguments it stops after the import, to time set-up alone.
    child.py warm <spec.json> <record.json>
        One long-lived process: a warm-up pass, then timed passes of
        run_sweep + emit_figure_tables over the configs in the spec until the
        spec's seconds are spent.

Timestamps are time.monotonic(), which all processes of the machine share, so
the parent can subtract its spawn time from them.  The record is written when
the process ends.
"""

import time

_START = time.monotonic()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _write(path: str, record: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)


def run_cli(record_path: str, trace: bool, argv: list) -> int:
    from stokes_manifolds import cli

    record = {"start": _START, "entry": time.monotonic()}
    code = 0
    tracer = None
    try:
        if argv:
            if trace:
                from tracer import Tracer

                tracer = Tracer()
                tracer.install()
                with tracer.operation("cli"):
                    code = cli.main(argv)
            else:
                code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        if tracer is not None:
            record["trace"] = tracer.export()
        _write(record_path, record)
    return code


def _ladder_invariants(report, index: int) -> list:
    """Invariants that need no stored answer, on the ladder's amplitude number
    `index`: the total Husimi integral equals the captured weight of the
    reported manifolds, and the two multipole routes agree for 2S <= 8."""
    from stokes_manifolds.multipole import multipoles_integral
    from stokes_manifolds.sphere import build_quadrature_grid, husimi_total

    res = report.results[index]
    s_max = report.config.resolved_s_report_max
    problems = []
    grid = build_quadrature_grid(report.grid_l)
    integral = husimi_total(res.sector, grid, s_max).integral()
    captured = sum(b.weight for b in res.sector.reported(s_max))
    if abs(integral - captured) > 1e-9:
        problems.append(f"alpha {res.alpha}: Husimi integral {integral} vs captured {captured}")
    small = build_quadrature_grid(16)
    blocks = {b.spin: b for b in res.sector.reported(4.0)}
    for spin, weights in res.manifold_multipoles:
        if spin in blocks:
            integral_route = multipoles_integral(blocks[spin], small).weights
            dev = max(abs(a - b) for a, b in zip(weights, integral_route))
            if dev > 1e-8:
                problems.append(f"alpha {res.alpha}, S={spin}: multipole routes differ by {dev:.2e}")
    return problems


def run_warm(spec_path: str, record_path: str) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    from stokes_manifolds import pipeline

    record = {"start": _START, "entry": time.monotonic(), "ops": []}
    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()

    def one_pass(item: dict, op: str, traced: bool) -> tuple[dict, object]:
        result = {"op": op, "out": item["out"], "traced": traced, "error": None, "problems": []}
        cpu0, t0 = _cpu_s(), time.perf_counter()
        report = None
        try:
            if traced:
                tracer.install()
                scope = tracer.operation(op)
            else:
                scope = warnings.catch_warnings(record=True)
            with scope:
                config = pipeline.parse_config(item["config"], {"out_dir": item["out"]})
                report = pipeline.run_sweep(config)
                pipeline.emit_figure_tables(report, config.out_dir)
        except (pipeline.ConfigError, pipeline.NumericalGuardError, OSError) as exc:
            result["error"] = f"{type(exc).__name__}: {exc}"
        finally:
            result["wall"] = time.perf_counter() - t0
            result["cpu"] = _cpu_s() - cpu0
            if traced:
                tracer.uninstall()
        return result, report

    def checked(item: dict, result: dict, report) -> dict:
        """Add the ladder invariants, outside the pass's timing."""
        if report is not None and "check_alpha" in item:
            result["problems"] = _ladder_invariants(report, item["check_alpha"])
        return result

    try:
        warmup = one_pass(spec["warmup"], "warmup", tracer is not None)
        record["ready"] = time.monotonic()
        record["warmup"] = checked(spec["warmup"], *warmup)
        begin = time.monotonic()
        for i, item in enumerate(spec["ops"]):
            traced = tracer is not None and i % 2 == 1
            record["ops"].append(checked(item, *one_pass(item, f"op{i}", traced)))
            elapsed = time.monotonic() - begin
            per_op = elapsed / len(record["ops"])
            if i + 1 >= spec["min_ops"] and elapsed + per_op > spec["seconds"]:
                break
    finally:
        if tracer is not None:
            record["trace"] = tracer.export()
        _write(record_path, record)
    return 0


def main(argv: list) -> int:
    mode, path, rest = argv[0], argv[1], argv[2:]
    if mode == "cli":
        trace = bool(rest) and rest[0] == "--trace"
        rest = rest[1:] if trace else rest
        return run_cli(path, trace, rest[1:] if rest[:1] == ["--"] else rest)
    if mode == "warm":
        return run_warm(path, rest[0])
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
