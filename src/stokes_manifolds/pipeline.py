"""Configuration, orchestration, and file emission for the analysis sweep.

A sweep synthesizes the V mode once and one H mode per coherent amplitude (only
the H mode is displaced), parses each product state into polarization
manifolds, and writes figure-data tables, sector dumps, Q-function grids, and
heatmap rasters.  All floating
point output is printed with 12 significant digits and every run is
deterministic, so identical configs produce byte-identical files.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import time
import warnings
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .fock import NoiseModel, synthesize_mode
from .multipole import aggregate_weights, multipoles_algebraic
from .polar import (
    PolarizationSector,
    dump_sector,
    parse_manifolds,
    photon_number_distribution,
)
from .render import render_foliation, render_heatmap, write_ppm
from .sphere import build_quadrature_grid, husimi_total
from .stokes import (
    StokesSummary,
    manifold_stokes_summary,
    quadrature_estimate_xi2,
    total_stokes_summary,
)

EMIT_CHOICES = (
    "squeezing_csv",
    "photon_csv",
    "multipole_csv",
    "sector_json",
    "q_csv",
    "heatmaps",
)

DEFAULT_ALPHAS = (0.0, 0.57, 1.13, 2.31)
# amplitudes with published reference data; others are flagged in the manifest
REFERENCE_ALPHAS = (0.0, 1.13, 2.31)
# a sweep warns when the truncated modes lose more than this share of the trace
TRACE_DEFICIT_WARN = 1e-6


class ConfigError(ValueError):
    """Malformed or out-of-range configuration."""


class NumericalGuardError(RuntimeError):
    """A runtime numerical guard tripped (insufficient cutoff, lost weight)."""


@dataclass(frozen=True)
class RunConfig:
    alphas: tuple = DEFAULT_ALPHAS
    squeezing_db: float = 3.6
    antisqueezing_db: float = 4.4
    efficiency: float = 0.85
    apply_loss: bool = True
    cutoff_h: int = 24
    cutoff_v: int = 24
    grid_l: int | None = None       # default 4 * S_report_max
    s_report_max: float | None = None  # default min(cutoff) / 2
    out_dir: str = "out"
    emit: tuple = EMIT_CHOICES
    allow_complex_alpha: bool = False
    raster_shape: tuple = (64, 128)

    def __post_init__(self):
        if not self.alphas:
            raise ConfigError("alphas must be non-empty")
        for a in self.alphas:
            if not np.isfinite(a):
                raise ConfigError(f"alpha {a!r} is not finite")
            if not self.allow_complex_alpha:
                if complex(a).imag != 0.0 or complex(a).real < 0.0:
                    raise ConfigError(
                        f"alpha {a!r} must be real and non-negative "
                        "(set allow_complex_alpha to lift this)"
                    )
        if not 0.0 <= self.efficiency <= 1.0:
            raise ConfigError("efficiency must lie in [0, 1]")
        if self.squeezing_db < 0 or self.antisqueezing_db < self.squeezing_db:
            raise ConfigError(
                "need 0 <= squeezing_db <= antisqueezing_db for a physical noise model"
            )
        if self.cutoff_h < 1 or self.cutoff_v < 1:
            raise ConfigError("cutoffs must be at least 1")
        if self.grid_l is not None and self.grid_l < 0:
            raise ConfigError("grid_l must be non-negative")
        if self.s_report_max is not None and self.s_report_max < 0.5:
            raise ConfigError("s_report_max must be at least 1/2")
        unknown = set(self.emit) - set(EMIT_CHOICES)
        if unknown:
            raise ConfigError(f"unknown emit flags: {sorted(unknown)}")

    @property
    def resolved_s_report_max(self) -> float:
        if self.s_report_max is not None:
            return self.s_report_max
        return min(self.cutoff_h, self.cutoff_v) / 2.0

    @property
    def resolved_grid_l(self) -> int:
        if self.grid_l is not None:
            return self.grid_l
        return int(math.ceil(4.0 * self.resolved_s_report_max))

    def echo(self) -> dict:
        return {
            "alphas": [float(a) for a in self.alphas],
            "squeezing_db": self.squeezing_db,
            "antisqueezing_db": self.antisqueezing_db,
            "efficiency": self.efficiency,
            "apply_loss": self.apply_loss,
            "cutoff_h": self.cutoff_h,
            "cutoff_v": self.cutoff_v,
            "grid_l": self.resolved_grid_l,
            "s_report_max": self.resolved_s_report_max,
            "out_dir": self.out_dir,
            "emit": list(self.emit),
            "allow_complex_alpha": self.allow_complex_alpha,
            "raster_shape": list(self.raster_shape),
        }


_CONFIG_KEYS = {f.name for f in fields(RunConfig)}


def parse_config(path=None, overrides: dict | None = None) -> RunConfig:
    """Load a JSON config document and apply CLI overrides (overrides win)."""
    data: dict = {}
    if path is not None:
        try:
            with open(path, encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("config document must be a JSON object")
    if overrides:
        data.update({k: v for k, v in overrides.items() if v is not None})
    unknown = set(data) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    for key in ("alphas", "emit", "raster_shape"):
        if key in data and isinstance(data[key], list):
            data[key] = tuple(data[key])
    try:
        return RunConfig(**data)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc


@dataclass(frozen=True)
class AlphaResult:
    """Everything computed for one coherent amplitude."""

    alpha: float
    sector: PolarizationSector
    manifold_summaries: tuple
    total: StokesSummary
    photon_distribution: tuple
    manifold_multipoles: tuple  # (spin, weights array) pairs
    aggregated_weights: np.ndarray
    analytic_estimate: float
    trace_deficit: float


@dataclass(frozen=True)
class RunReport:
    config: RunConfig
    results: tuple
    grid_l: int
    wall_clock: float


def _check_cutoffs(config: RunConfig):
    s_max = config.resolved_s_report_max
    needed = int(round(2 * s_max))
    if needed > min(config.cutoff_h, config.cutoff_v):
        raise NumericalGuardError(
            f"S_report_max={s_max} needs photon numbers up to {needed} in both "
            f"modes; cutoffs are ({config.cutoff_h}, {config.cutoff_v})"
        )
    if set(config.emit) & {"q_csv", "heatmaps"} and config.resolved_grid_l < 4.0 * s_max:
        raise NumericalGuardError(
            f"grid_l={config.resolved_grid_l} is too coarse for the Q functions of "
            f"S_report_max={s_max}; q_csv and heatmaps need grid_l >= {4.0 * s_max:g}"
        )


def _dedupe(alphas):
    seen = []
    for a in alphas:
        if any(a == b for b in seen):
            warnings.warn(f"duplicate alpha {a} removed from sweep", stacklevel=3)
            continue
        seen.append(a)
    return tuple(seen)


def run_sweep(config: RunConfig) -> RunReport:
    """Synthesize, parse, and analyze the state at every requested amplitude."""
    t0 = time.perf_counter()
    _check_cutoffs(config)
    alphas = _dedupe(config.alphas)
    efficiency = config.efficiency if config.apply_loss else 1.0
    model = NoiseModel(config.squeezing_db, config.antisqueezing_db, efficiency)
    s_max = config.resolved_s_report_max
    rho_v = synthesize_mode(model, 0.0, config.cutoff_v)
    results = []
    for alpha in alphas:
        rho_h = synthesize_mode(model, alpha, config.cutoff_h)
        deficit = 1.0 - rho_h.trace * rho_v.trace
        if deficit > TRACE_DEFICIT_WARN:
            warnings.warn(
                f"cutoffs ({config.cutoff_h}, {config.cutoff_v}) lose {deficit:.3g} "
                f"of the trace at alpha={alpha}, above {TRACE_DEFICIT_WARN:g}; "
                "a larger cutoff is recommended",
                stacklevel=2,
            )
        sector = parse_manifolds(rho_h, rho_v)
        reported = sector.reported(s_max)
        try:
            # the total uses every parsed manifold; s_max only limits reports
            total = total_stokes_summary(sector)
            spectra = [multipoles_algebraic(block).weights for block in reported]
        except ValueError as exc:
            raise NumericalGuardError(str(exc)) from exc
        summaries = []
        multis = []
        terms = []
        for block, weights in zip(reported, spectra):
            terms.append((block.weight, weights))
            if block.spin == 0:
                continue
            summaries.append(manifold_stokes_summary(block))
            multis.append((block.spin, weights))
        analytic = quadrature_estimate_xi2(abs(complex(alpha)), model.squeeze_parameter)
        results.append(
            AlphaResult(
                alpha=float(abs(complex(alpha))) if not config.allow_complex_alpha else alpha,
                sector=sector,
                manifold_summaries=tuple(summaries),
                total=total,
                photon_distribution=tuple(photon_number_distribution(sector)),
                manifold_multipoles=tuple(multis),
                aggregated_weights=aggregate_weights(terms),
                analytic_estimate=analytic,
                trace_deficit=deficit,
            )
        )
    return RunReport(
        config=config,
        results=tuple(results),
        grid_l=config.resolved_grid_l,
        wall_clock=time.perf_counter() - t0,
    )


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def _write_csv(path: Path, header, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def emit_figure_tables(report: RunReport, outdir) -> dict:
    """Write the requested files and return a manifest with their hashes."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    config = report.config
    emit = set(config.emit)
    s_max = config.resolved_s_report_max
    written: list[Path] = []

    if "squeezing_csv" in emit:
        rows = []
        for res in report.results:
            for s in res.manifold_summaries:
                block = next(
                    b for b in res.sector.blocks if b.spin == s.spin
                )
                rows.append(
                    (res.alpha, s.spin, round(2 * s.spin), block.weight,
                     s.mean[0], s.mean[1], s.mean[2],
                     s.gamma_min, s.xi2, s.xi2_db, s.mode)
                )
        path = outdir / "fig3a.csv"
        _write_csv(
            path,
            ["alpha", "S", "N", "P_S", "mean_x", "mean_y", "mean_z",
             "gamma_min", "xi2", "xi2_dB", "mode"],
            rows,
        )
        written.append(path)

    if "photon_csv" in emit:
        rows = [
            (res.alpha, n, p)
            for res in report.results
            for n, p in res.photon_distribution
            if n <= 2 * s_max
        ]
        path = outdir / "fig3b.csv"
        _write_csv(path, ["alpha", "N", "P_N"], rows)
        written.append(path)

    if "squeezing_csv" in emit:
        rows = [
            (res.alpha, res.total.xi2, res.total.xi2_db,
             res.analytic_estimate, res.total.mode)
            for res in report.results
        ]
        path = outdir / "fig3c.csv"
        _write_csv(
            path, ["alpha", "xi2", "xi2_dB", "analytic_estimate", "mode"], rows
        )
        written.append(path)

    if "multipole_csv" in emit:
        rows = []
        for res in report.results:
            for spin, weights in res.manifold_multipoles:
                for k, w in enumerate(weights):
                    rows.append((res.alpha, spin, k, w))
            for k, w in enumerate(res.aggregated_weights):
                rows.append((res.alpha, "total", k, w))
        path = outdir / "fig3d.csv"
        _write_csv(path, ["alpha", "S", "K", "W_K"], rows)
        written.append(path)

    need_grid = emit & {"q_csv", "heatmaps"}
    if need_grid:
        grid = build_quadrature_grid(report.grid_l)
        for i, res in enumerate(report.results):
            q = husimi_total(res.sector, grid, s_max)
            tag = f"alpha{i}"
            if "q_csv" in emit:
                th, ph = grid.mesh()
                rows = zip(
                    th.ravel().tolist(),
                    ph.ravel().tolist(),
                    grid.weights.ravel().tolist(),
                    q.values.ravel().tolist(),
                )
                path = outdir / f"q_total_{tag}.csv"
                _write_csv(path, ["theta", "phi", "weight", "value"], rows)
                written.append(path)
            if "heatmaps" in emit:
                path = outdir / f"q_total_{tag}_equirect.ppm"
                write_ppm(render_heatmap(q, "equirectangular", config.raster_shape), path)
                written.append(path)
                for axis in ("x", "y", "z"):
                    path = outdir / f"q_total_{tag}_view_{axis}.ppm"
                    write_ppm(render_heatmap(q, axis, config.raster_shape), path)
                    written.append(path)
                path = outdir / f"foliation_{tag}_view_z.ppm"
                write_ppm(render_foliation(q, "z"), path)
                written.append(path)
            del q  # release this alpha's manifold maps before the next are built

    if "sector_json" in emit:
        for i, res in enumerate(report.results):
            path = outdir / f"sector_alpha{i}.json"
            dump_sector(res.sector.restricted(s_max), path)
            written.append(path)

    manifest = {
        "config": config.echo(),
        "files": {p.name: _sha256(p) for p in written},
        "alphas": [res.alpha for res in report.results],
        "non_reference_alphas": sorted(
            {res.alpha for res in report.results} - set(REFERENCE_ALPHAS)
        ),
        "trace_deficit": {
            _fmt(res.alpha): res.trace_deficit for res in report.results
        },
    }
    with open(outdir / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return manifest
