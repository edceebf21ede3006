#!/usr/bin/env python3
"""The repository's benchmark: the stokes-manifolds pipeline, end to end and per layer.

    python3 bench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  Each workload runs the program in child
processes of its own (`bench/child.py`), with `src/` on the import path; the
program receives only the config files this script generates from the seed.
Every pass's outputs are checked (`bench/check.py`), and a pass that exits
non-zero, trips a guard or writes a wrong output counts as failed.

With `--trace 0` the end-to-end metrics of BENCHMARK.json are measured with
nothing wrapped.  With `--trace 1` the child wraps the package's public
functions (`bench/tracer.py`) on every other pass and the per-layer metrics
come from those passes; the passes in between give the tracing overhead.  The
last line of standard output is one JSON object: correct, attempted, failed
and metrics.

    python3 bench/run.py --write-reference
rewrites bench/reference/ from the checked-out code.  It was run at the seed
commit; the references are the answers later commits are compared with.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tarfile
import tempfile
import threading
import time
from pathlib import Path

import check
import tracer

BENCH = Path(__file__).resolve().parent
ROOT = Path.cwd()
CHILD = str(BENCH / "child.py")
RUN_LIMIT_S = 170.0  # a run must end within 180 s
SETUP_SAMPLES = 5  # extra import-only spawns per cold CLI run
LADDER_SIZE = 8
ALPHA_MAX = 2.31  # largest amplitude of the paper's default study
MAX_WARM_PASSES = 64
TRACED_MIN_PASSES = 4  # two traced and two untraced, for the overhead estimate

EMIT_CSV = ["squeezing_csv", "photon_csv", "multipole_csv"]

# kind "cli": each pass is a cold `stokes-manifolds run` process.
# kind "warm": one process, a warm-up pass, then timed passes.
WORKLOADS = {
    "cli_default": {"kind": "cli", "config": {}},
    "sweep_warm": {"kind": "warm", "config": {"emit": EMIT_CSV}, "ladder": True},
    "qmap_fine": {"kind": "warm", "config": {"grid_l": 96, "emit": ["q_csv", "heatmaps"]}},
}


class BenchError(RuntimeError):
    """The benchmark cannot run here (no program, no BENCHMARK.json)."""


def _child_env() -> dict:
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))


class Child:
    """A finished child process: spawn time, wall time, exit code, rusage."""

    def __init__(self, argv: list, stderr_path: Path, deadline: float):
        with open(stderr_path, "wb") as err:
            self.t_spawn = time.monotonic()
            proc = subprocess.Popen(argv, cwd=ROOT, env=_child_env(),
                                    stdout=subprocess.DEVNULL, stderr=err)
        watchdog = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
        watchdog.start()
        try:
            _, status, self.usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        self.wall = time.monotonic() - self.t_spawn
        self.code = proc.returncode = os.waitstatus_to_exitcode(status)
        self.stderr_path = stderr_path

    @property
    def rss_mb(self) -> float:
        return self.usage.ru_maxrss / 1024.0

    @property
    def cpu_s(self) -> float:
        return self.usage.ru_utime + self.usage.ru_stime

    def failure(self) -> list[str]:
        if self.code == 0:
            return []
        tail = self.stderr_path.read_text(errors="replace").strip().splitlines()[-1:]
        return [f"exit code {self.code}: {' '.join(tail)}"]


def _write_json(path: Path, data) -> Path:
    path.write_text(json.dumps(data), encoding="utf-8")
    return path


def _read_json(path: Path) -> dict:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return {}


def _workdir(prefix: str) -> Path:
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=prefix, dir=ROOT / ".bench_work"))


def _ladder(rng: random.Random) -> list[float]:
    """One amplitude drawn from each of LADDER_SIZE equal strata of [0, ALPHA_MAX].

    A pass costs more at larger amplitudes (the displacement exponential needs
    more squarings), so stratified ladders keep the cost of a pass the same
    from seed to seed while the amplitudes themselves change.
    """
    width = ALPHA_MAX / LADDER_SIZE
    return [round(width * (i + rng.random()), 4) for i in range(LADDER_SIZE)]


# -- workloads ------------------------------------------------------------------


def run_cli(name: str, spec: dict, seconds: float, trace: bool, work: Path,
            deadline: float) -> dict:
    """Cold `stokes-manifolds run` processes until `seconds` are spent."""
    config = _write_json(work / "config.json", spec["config"])
    reference = check.load_reference(BENCH / "reference" / f"{name}.tar.xz")
    setup = []
    for i in range(0 if trace else SETUP_SAMPLES):
        record = work / f"setup{i}.json"
        child = Child([sys.executable, CHILD, "cli", str(record)], work / "stderr", deadline)
        if child.code == 0:
            setup.append(_read_json(record)["entry"] - child.t_spawn)
    passes = []
    begin = time.monotonic()
    while True:
        i = len(passes)
        traced = trace and i % 2 == 1
        out, record = work / f"op{i}", work / f"op{i}.json"
        argv = [sys.executable, CHILD, "cli", str(record), *(["--trace"] if traced else []),
                "--", "run", "--config", str(config), "--out", str(out)]
        child = Child(argv, work / "stderr", deadline)
        rec = _read_json(record)
        problems = child.failure() or check.compare_dir(out, reference)
        shutil.rmtree(out, ignore_errors=True)
        passes.append({
            "wall": child.wall, "cpu": child.cpu_s, "rss_mb": child.rss_mb, "traced": traced,
            "problems": problems, "op": "cli", "trace": rec.get("trace"),
            "import_s": rec["entry"] - rec["start"] if rec else None,
        })
        if rec and not traced:
            setup.append(rec["entry"] - child.t_spawn)
        elapsed = time.monotonic() - begin
        per_pass = elapsed / len(passes)
        if len(passes) >= (TRACED_MIN_PASSES if trace else 1) and elapsed + per_pass > seconds:
            break
        if time.monotonic() + 1.5 * per_pass > deadline:
            break
    return {"passes": passes, "warmup": [], "setup": setup,
            "rss_mb": _median(p["rss_mb"] for p in passes if not p["traced"])}


def run_warm(name: str, spec: dict, seed: int, seconds: float, trace: bool, work: Path,
             deadline: float) -> dict:
    """One long-lived process: a warm-up pass, then timed passes."""
    rng = random.Random(seed)
    ladder = spec.get("ladder", False)
    reference = None if ladder else check.load_reference(BENCH / "reference" / f"{name}.tar.xz")

    def item(tag: str) -> dict:
        config = dict(spec["config"])
        entry = {"out": str(work / tag)}
        if ladder:
            config["alphas"] = _ladder(rng)
            entry["alphas"] = config["alphas"]
            entry["check_alpha"] = rng.randrange(LADDER_SIZE)
        entry["config"] = str(_write_json(work / f"{tag}.config.json", config))
        return entry

    warm_spec = {
        "trace": trace, "seconds": seconds, "min_ops": TRACED_MIN_PASSES if trace else 1,
        "warmup": item("warmup"), "ops": [item(f"op{i}") for i in range(MAX_WARM_PASSES)],
    }
    record_path = work / "record.json"
    child = Child([sys.executable, CHILD, "warm", str(_write_json(work / "spec.json", warm_spec)),
                   str(record_path)], work / "stderr", deadline)
    record = _read_json(record_path)
    items = {i["out"]: i for i in [warm_spec["warmup"], *warm_spec["ops"]]}
    ran = [record["warmup"], *record["ops"]] if "warmup" in record else []
    passes = []
    for p in ran:
        out = Path(p["out"])
        problems = [p["error"]] if p["error"] else list(p["problems"])
        if not p["error"]:
            problems += (check.check_ladder(out, items[p["out"]]["alphas"]) if ladder
                         else check.compare_dir(out, reference))
        passes.append({"wall": p["wall"], "cpu": p["cpu"], "traced": p["traced"],
                       "problems": problems, "op": p["op"], "trace": record.get("trace"),
                       "import_s": record["entry"] - record["start"]})
    if child.code != 0 or not passes:
        passes.append({"wall": child.wall, "cpu": child.cpu_s, "traced": False, "op": None,
                       "trace": None, "problems": child.failure() or ["no record written"],
                       "import_s": None})
    warmup = passes[:1] if "warmup" in record else []
    return {
        "passes": passes[len(warmup):],
        "warmup": warmup,
        "setup": [record["ready"] - child.t_spawn] if "ready" in record else [],
        "rss_mb": child.rss_mb,
    }


# -- metrics --------------------------------------------------------------------


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def end_to_end(result: dict) -> dict:
    return {
        "wall_s": _median(p["wall"] for p in result["passes"] if not p["traced"]),
        "setup_s": _median(result["setup"]),
        "peak_rss_mb": result["rss_mb"],
    }


def _pass_layer_metrics(trace: dict, op: str, cpu_s: float, import_s: float) -> dict:
    s = tracer.summarize(trace, op)
    calls, counts = s["calls"], s["counts"]
    metrics = {}
    for fn, layer in tracer.SPANNED.items():
        metrics[f"{layer}.{fn}.calls"] = calls.get(fn, 0)
        metrics[f"{layer}.{fn}.self_s"] = s["self_s"].get(fn, 0.0)
    for layer, seconds in s["layer_self_s"].items():
        metrics[f"{layer}.self_s"] = seconds
        metrics[f"{layer}.warnings"] = counts.get(f"{layer}.warnings", 0)
    for name in tracer.COUNTS:
        metrics[name] = counts.get(name, 0)
    alg_calls, q_calls = calls.get("multipoles_algebraic", 0), calls.get("husimi_manifold", 0)
    # distinct work over calls made; 1 when the layer made no calls
    metrics["multipole.useful_ratio"] = (
        counts.get("multipole.distinct_blocks", 0) / alg_calls if alg_calls else 1.0)
    metrics["sphere.husimi_useful_ratio"] = (
        counts.get("sphere.distinct_blocks", 0) / q_calls if q_calls else 1.0)
    metrics["cli.import_s"] = import_s
    metrics["cli.parse_config_s"] = metrics["cli.parse_config.self_s"]
    metrics["cli.cpu_s"] = cpu_s
    metrics["trace.op_wall_s"] = s["op_wall_s"]
    metrics["trace.unattributed_s"] = s["unattributed_s"]
    return metrics


def per_layer(result: dict) -> dict:
    traced = [p for p in result["passes"] if p["traced"] and p["trace"]]
    untraced = [p for p in result["passes"] if not p["traced"]]
    if not traced:
        raise BenchError("no traced pass finished")
    samples = [_pass_layer_metrics(p["trace"], p["op"], p["cpu"], p["import_s"]) for p in traced]
    metrics = {k: _median(s[k] for s in samples) for k in samples[0]}
    # the first pass of a fresh process: the warm-up, or every cold CLI pass
    cold = [p for p in result["warmup"] or result["passes"] if p["traced"] and p["trace"]]
    cold_samples = [tracer.summarize(p["trace"], p["op"])["layer_self_s"] for p in cold]
    for layer in tracer.LAYERS:
        metrics[f"{layer}.cold_self_s"] = _median(s[layer] for s in cold_samples)
    metrics["trace.traced_wall_s"] = _median(p["wall"] for p in traced)
    metrics["trace.untraced_wall_s"] = _median(p["wall"] for p in untraced)
    metrics["trace.overhead_s"] = metrics["trace.traced_wall_s"] - metrics["trace.untraced_wall_s"]
    return metrics


# -- entry point ----------------------------------------------------------------


def environment(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "seed": seed, "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}", "cpu": cpu,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    spec = WORKLOADS[name]
    deadline = time.monotonic() + RUN_LIMIT_S
    work = _workdir(f"{name}-")
    try:
        if spec["kind"] == "cli":
            result = run_cli(name, spec, seconds, trace, work, deadline)
        else:
            result = run_warm(name, spec, seed, seconds, trace, work, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    counted = result["warmup"] + result["passes"]
    failed = [p for p in counted if p["problems"]]
    for p in failed[:5]:
        print(f"{name}: failed pass: {'; '.join(p['problems'][:3])}", file=sys.stderr)
    return {
        "attempted": len(counted),
        "failed": len(failed),
        "metrics": per_layer(result) if trace else end_to_end(result),
    }


def _metric_specs(trace: bool) -> list[dict]:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"{path} not found; run from the root of a checkout")
    return json.loads(path.read_text(encoding="utf-8"))["per_layer" if trace else "end_to_end"]


def _check_program() -> None:
    if not (ROOT / "src" / "stokes_manifolds" / "cli.py").is_file():
        raise BenchError(f"no program at {ROOT / 'src' / 'stokes_manifolds'}; "
                         "run from the root of a checkout")


def report_line(name: str, outcome: dict, specs: list[dict]) -> dict:
    metrics = {}
    for spec in specs:
        value = outcome["metrics"].get(spec["name"])
        if value is None:
            raise BenchError(f"{name}: metric {spec['name']} was not measured")
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
    return {
        "correct": outcome["failed"] == 0,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": metrics,
    }


def write_reference() -> None:
    """Run every fixed-config workload once and store its outputs."""
    work = _workdir("reference-")
    try:
        for name, spec in WORKLOADS.items():
            if spec.get("ladder"):
                continue
            out = work / name
            config = _write_json(work / f"{name}.json", spec["config"])
            child = Child([sys.executable, CHILD, "cli", str(work / "record.json"), "--",
                           "run", "--config", str(config), "--out", str(out)],
                          work / "stderr", time.monotonic() + 600.0)
            if child.code != 0:
                raise BenchError(f"{name}: {child.failure()}")
            target = BENCH / "reference" / f"{name}.tar.xz"
            target.parent.mkdir(exist_ok=True)
            with tarfile.open(target, "w:xz") as tar:
                for path in sorted(out.iterdir()):
                    info = tar.gettarinfo(str(path), arcname=path.name)
                    info.mtime, info.uid, info.gid, info.uname, info.gname = 0, 0, 0, "", ""
                    with open(path, "rb") as fh:
                        tar.addfile(info, fh)
            print(f"wrote {target.relative_to(ROOT)}")
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    # turn SIGTERM into SystemExit, so a running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        _check_program()
        if args.write_reference:
            write_reference()
            return 0
        specs = _metric_specs(bool(args.trace))
        print("env " + json.dumps(environment(args.seed)))
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        lines = {}
        for name in names:
            outcome = run_workload(name, args.seed, args.seconds, bool(args.trace))
            lines[name] = report_line(name, outcome, specs)
            rate = outcome["failed"] / outcome["attempted"]
            shown = "  ".join(f"{k}={v['value']:.6g} {v['unit']}"
                              for k, v in lines[name]["metrics"].items())
            print(f"{name}: {shown}  error_rate={rate:.3g} "
                  f"({outcome['failed']}/{outcome['attempted']} passes failed)")
    except BenchError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(lines[names[0]] if len(names) == 1 else lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
