"""Configuration, orchestration, and file emission for the analysis sweep.

A sweep synthesizes the V mode once and one H mode per coherent amplitude (only
the H mode is displaced), takes each product state's weights P_N and Stokes
moments from the mode diagonals, and, only for an emit that reads them, parses
it into polarization-manifold blocks and forms their multipoles and total
Husimi Q.  Emission only renders and writes figure-data tables, sector dumps,
Q-function grids and heatmap rasters; each file's format is here, and
`write_bytes`, the one writer, hashes the bytes as it writes them.  Floats
print with 12 significant digits and every run is deterministic, so identical
configs give byte-identical files, at one BLAS thread and at two alike for the
default config, cutoff 48 and alpha 7 at cutoff 160 (other configs are tested
at a fixed thread count).
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import numbers
import warnings
from dataclasses import asdict, dataclass, fields
from functools import lru_cache
from pathlib import Path

import numpy as np

from .fock import DISPLACEMENT_LIMIT, ModeState, NoiseModel, synthesize_mode
from .multipole import multipole_stack, spectrum_weights
from .polar import ManifoldBlock, PolarizationSector, gather_manifolds, report_photons, sectors
from .render import render_foliation, render_heatmap
from .sphere import QFunction, build_quadrature_grid, husimi_totals
from .stokes import StokesSummary, diagonal_moments, quadrature_estimate_xi2, stokes_summaries

EMIT_CHOICES = (
    "squeezing_csv",
    "photon_csv",
    "multipole_csv",
    "sector_json",
    "q_csv",
    "heatmaps",
)
# the emits that read the manifold blocks, which a sweep gathers only for them
BLOCK_EMITS = {"multipole_csv", "q_csv", "heatmaps", "sector_json"}

DEFAULT_ALPHAS = (0.0, 0.57, 1.13, 2.31)
# amplitudes with published reference data; others are flagged in the manifest
REFERENCE_ALPHAS = (0.0, 1.13, 2.31)
# a sweep warns when the truncated modes lose more than this share of the trace
TRACE_DEFICIT_WARN = 1e-6


class ConfigError(ValueError):
    """Malformed or out-of-range configuration."""


class NumericalGuardError(RuntimeError):
    """A runtime numerical guard tripped (insufficient cutoff, lost weight)."""


def _is_real(value) -> bool:
    """A finite real number; bool, an int subclass, is refused."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)


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
    allow_complex_alpha: bool = False  # admits negative real alphas; complex ones are refused
    raster_shape: tuple = (64, 128)

    def __post_init__(self):
        for name in ("apply_loss", "allow_complex_alpha"):
            value = getattr(self, name)
            if not isinstance(value, bool):
                raise ConfigError(f"{name} must be true or false, got {value!r}")
        for name in ("alphas", "emit"):
            if not isinstance(getattr(self, name), (list, tuple)):
                raise ConfigError(f"{name} must be a list, got {getattr(self, name)!r}")
        if not self.alphas:
            raise ConfigError("alphas must be non-empty")
        for a in self.alphas:
            if not _is_real(a):
                raise ConfigError(f"alphas entry {a!r} is not a finite real number")
            if a < 0 and not self.allow_complex_alpha:
                raise ConfigError(
                    f"alpha {a!r} must be non-negative "
                    "(set allow_complex_alpha to allow negative amplitudes)"
                )
        for name in ("squeezing_db", "antisqueezing_db", "s_report_max"):
            value = getattr(self, name)
            if value is not None and not _is_real(value):
                raise ConfigError(f"{name} {value!r} is not a finite real number")
        if not (_is_real(self.efficiency) and 0.0 <= self.efficiency <= 1.0):
            raise ConfigError(f"efficiency must be a number in [0, 1], got {self.efficiency!r}")
        if self.squeezing_db < 0 or self.antisqueezing_db < self.squeezing_db:
            raise ConfigError(
                "need 0 <= squeezing_db <= antisqueezing_db for a physical noise model"
            )
        if not all(type(n) is int and n >= 1 for n in (self.cutoff_h, self.cutoff_v)):
            raise ConfigError(
                f"cutoff_h and cutoff_v must be integers of at least 1, "
                f"got {self.cutoff_h!r}, {self.cutoff_v!r}"
            )
        if self.grid_l is not None and not (type(self.grid_l) is int and self.grid_l >= 0):
            raise ConfigError(f"grid_l must be a non-negative integer, got {self.grid_l!r}")
        if self.s_report_max is not None and self.s_report_max < 0.5:
            raise ConfigError("s_report_max must be at least 1/2")
        unknown = set(self.emit) - set(EMIT_CHOICES)
        if unknown:
            raise ConfigError(f"unknown emit flags: {sorted(unknown)}")
        shape = self.raster_shape
        if not (isinstance(shape, (tuple, list)) and len(shape) == 2
                and all(type(n) is int and n > 0 for n in shape)):
            raise ConfigError(f"raster_shape must be two positive integers, got {shape!r}")
        if not (isinstance(self.out_dir, str) and self.out_dir):
            raise ConfigError(f"out_dir must be a non-empty string, got {self.out_dir!r}")

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

    @property
    def noise_model(self) -> NoiseModel:
        efficiency = self.efficiency if self.apply_loss else 1.0
        return NoiseModel(self.squeezing_db, self.antisqueezing_db, efficiency)

    def echo(self) -> dict:
        return {
            **asdict(self),
            "alphas": [float(a) for a in self.alphas],
            "grid_l": self.resolved_grid_l,
            "s_report_max": self.resolved_s_report_max,
        }


CONFIG_KEYS = {f.name for f in fields(RunConfig)}


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
    unknown = set(data) - CONFIG_KEYS
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
    """Everything computed for one coherent amplitude: P_N for N = 0..2 S_max
    and the summaries of the manifolds N > 0 above the weight floor and of the
    total, from the mode diagonals.  The sector (the manifolds above the
    floor), the multipole spectra and the total Husimi Q `q` are None, empty
    and None unless an emit reads them (`_analyze`)."""

    alpha: float
    manifold_weights: np.ndarray
    sector: PolarizationSector | None
    manifold_summaries: tuple
    total: StokesSummary
    manifold_multipoles: tuple  # (spin, weights array) pairs
    aggregated_weights: np.ndarray
    q: QFunction | None
    analytic_estimate: float
    trace_deficit: float


@dataclass(frozen=True)
class RunReport:
    """The sweep's results, one per amplitude, and the V mode they share."""

    config: RunConfig
    rho_v: ModeState
    results: tuple

    @property
    def grid_l(self) -> int:
        return self.config.resolved_grid_l


def _check_cutoffs(config: RunConfig, model: NoiseModel, alphas):
    """Every refusal a config can earn before any mode is synthesized: the
    report range, the Q-function grid, by the closed form the mean photon
    number of the V mode and of each H mode, and each displacement's size."""
    s_max = config.resolved_s_report_max
    try:
        top = report_photons(s_max, config.cutoff_h, config.cutoff_v)
    except ValueError as exc:
        raise NumericalGuardError(str(exc)) from exc
    if set(config.emit) & {"q_csv", "heatmaps"} and config.resolved_grid_l < 2 * top:
        raise NumericalGuardError(
            f"grid_l={config.resolved_grid_l} is too coarse for the Q functions of "
            f"S_report_max={s_max}; q_csv and heatmaps need grid_l >= {2 * top}"
        )
    modes = [("the V mode", 0.0, config.cutoff_v)]
    modes += [(f"alpha={a}: the H mode", a, config.cutoff_h) for a in alphas]
    for what, amplitude, cutoff in modes:
        mean = model.mean_photons(amplitude)
        if not mean <= cutoff:
            raise NumericalGuardError(
                f"{what}'s mean photon number {mean:.4g} exceeds its cutoff {cutoff}; "
                "a larger cutoff is needed"
            )
        shift = (math.sqrt(model.efficiency) * amplitude) ** 2
        if not shift <= DISPLACEMENT_LIMIT:
            raise NumericalGuardError(f"{what}'s displacement |sqrt(eta) alpha|^2 = {shift:.6g} "
                                      f"exceeds {DISPLACEMENT_LIMIT:g}, where D underflows")


def _dedupe(alphas):
    """The amplitudes as floats, less those printed (`_fmt`) like an earlier
    one, which would share its rows and manifest key; + 0.0 folds -0.0 into
    0.0, so no row, key, message or stdout line reads "-0"."""
    seen = {}
    for a in alphas:
        value = float(a) + 0.0
        text = _fmt(value)
        if text in seen:
            warnings.warn(f"duplicate alpha {a} removed from sweep", stacklevel=3)
            continue
        seen[text] = value
    return tuple(seen.values())


def run_sweep(config: RunConfig) -> RunReport:
    """Synthesize the V mode and every H mode, then analyze all amplitudes
    together (`_analyze`)."""
    model = config.noise_model
    alphas = _dedupe(config.alphas)
    _check_cutoffs(config, model, alphas)
    try:
        rho_v = synthesize_mode(model, 0.0, config.cutoff_v)
        modes, deficits = [], []
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
            modes.append(rho_h)
            deficits.append(deficit)
        analyses = _analyze(modes, rho_v, config)
    except ValueError as exc:
        raise NumericalGuardError(str(exc)) from exc
    results = tuple(
        AlphaResult(alpha=alpha, **analysis, trace_deficit=deficit,
                    analytic_estimate=quadrature_estimate_xi2(abs(alpha), model.squeeze_parameter))
        for alpha, analysis, deficit in zip(alphas, analyses, deficits)
    )
    return RunReport(config=config, rho_v=rho_v, results=results)


def _analyze(modes, rho_v, config: RunConfig) -> list[dict]:
    """P_N and the Stokes summaries of each H mode with rho_V from the mode
    diagonals, minimised as one stack; for an emit in BLOCK_EMITS the layers
    of the N <= 2 S_max at which some amplitude is above the weight floor,
    each gathered for every amplitude live at N at once, and the sectors; for
    `multipole_csv` the spectra; for `q_csv` or `heatmaps` the total Q of
    each (`husimi_totals`).  No step depends on the amplitude count."""
    count, emit = len(modes), set(config.emit)
    top = report_photons(config.resolved_s_report_max, config.cutoff_h, config.cutoff_v)
    weights, live, *moments = diagonal_moments(modes, rho_v, top)
    summaries = stokes_summaries(*moments)
    layers, parsed, totals = (), [None] * count, [None] * count
    multipoles, aggregated = [()] * count, [np.zeros(0)] * count
    if emit & BLOCK_EMITS:
        h = np.stack([rho_h.entries for rho_h in modes])
        layers = tuple(gather_manifolds(h, rho_v.entries, n, weights[:, n], live[:, n])
                       for n in np.flatnonzero(live[:, :top + 1].any(axis=0)).tolist())
        parsed = sectors(layers, count)
    if "multipole_csv" in emit:
        multipoles, aggregated = _spectra(layers, count)
    if emit & {"q_csv", "heatmaps"}:
        totals = husimi_totals(layers, count, build_quadrature_grid(config.resolved_grid_l))
    ends = np.cumsum(live[:, 1:top + 1].sum(axis=1)).tolist()  # of each amplitude's rows
    return [
        dict(manifold_weights=weights[a, :top + 1], sector=sector,
             manifold_summaries=tuple(summaries[start:end]), total=summaries[ends[-1] + a],
             manifold_multipoles=multipoles[a], aggregated_weights=aggregated[a], q=q)
        for a, (sector, q, start, end) in enumerate(zip(parsed, totals, [0, *ends], ends))
    ]


def _spectra(layers, count: int) -> tuple[list, list]:
    """Each amplitude's (spin, W_K) of its manifolds N > 0 and its
    sum_N P_N W_K^(N), from one `multipole_stack` of each layer."""
    multipoles = [[] for _ in range(count)]
    aggregated = np.zeros((count, layers[-1].photons + 1 if layers else 1))  # K <= top live N
    for layer in layers:
        n, live = layer.photons, np.flatnonzero(layer.live)
        weights = spectrum_weights(multipole_stack(n, layer.blocks))
        aggregated[live, :n + 1] += layer.weights[:, None] * weights
        if n:
            for a, w in zip(live.tolist(), weights):
                multipoles[a].append((n / 2.0, w))
    return ([tuple(m) for m in multipoles],  # each sum up to K = 2S of the top live S
            [aggregated[a, :len(m[-1][1]) if m else 1] for a, m in enumerate(multipoles)])


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


# Figure-table lines as csv.writer printed them over `_fmt`: fields joined by
# commas, "\r\n" line ends, floats as %.12g and ints as %d.  No field needs
# quoting: the formatted numbers and the mode names hold no comma, quote or
# line break.
FIG3A_HEADER = "alpha,S,N,P_S,mean_x,mean_y,mean_z,gamma_min,xi2,xi2_dB,mode\r\n"
FIG3A_ROW = "%.12g,%d,%.12g,%.12g,%.12g,%.12g,%.12g,%.12g,%.12g,%s\r\n"  # after "alpha,"
FIG3B_HEADER = "alpha,N,P_N\r\n"
FIG3C_HEADER = "alpha,xi2,xi2_dB,analytic_estimate,mode\r\n"
FIG3C_ROW = "%.12g,%.12g,%.12g,%s\r\n"  # after "alpha,"
FIG3D_HEADER = "alpha,S,K,W_K\r\n"
NUMBERED_ROW = "%d,%.12g\r\n"  # "N,P_N" of fig3b and "K,W_K" of fig3d


def _fig3a_text(res: AlphaResult) -> str:
    """The fig3a lines of one amplitude: one per reported spin > 0 manifold."""
    values = []
    for s in res.manifold_summaries:
        n = round(2 * s.spin)
        values += (s.spin, n, res.manifold_weights[n], *s.mean.tolist(),
                   s.gamma_min, s.xi2, s.xi2_db, s.mode)
    return (_fmt(res.alpha) + "," + FIG3A_ROW) * len(res.manifold_summaries) % tuple(values)


def _numbered_text(rows) -> str:
    """The lines prefix + "k,v" for each (prefix, values) of `rows` and each
    k, v in enumerate(values), from one template filled once."""
    rows = list(rows)
    return "".join((prefix + NUMBERED_ROW) * len(values) for prefix, values in rows) % tuple(
        itertools.chain.from_iterable(itertools.chain.from_iterable(
            enumerate(values) for _, values in rows)))


def _fig3d_text(res: AlphaResult) -> str:
    """The fig3d lines of one amplitude: each manifold's W_K, then the total's."""
    alpha = _fmt(res.alpha) + ","
    return _numbered_text((alpha + _fmt(spin) + ",", weights.tolist()) for spin, weights
                          in (*res.manifold_multipoles, ("total", res.aggregated_weights)))


@lru_cache(maxsize=1)
def _q_csv_rows(degree: int) -> tuple[str, ...]:
    """Per theta row of the quadrature grid of `degree`, the lines
    `theta,phi,weight,%.12g\r\n` with the grid fields printed as the figure
    tables print floats.  The weights are constant along a theta row, so only
    n_theta + n_phi grid values are formatted.  Kept for the one grid a run
    draws on: about 1.0 MB at L 96 and 11 MB at L 320."""
    grid = build_quadrature_grid(degree)
    theta = ["%.12g" % x for x in grid.theta.tolist()]
    weight = ["%.12g" % x for x in grid.weights[:, 0].tolist()]
    phi = [",%.12g," % x for x in grid.phi.tolist()]
    return tuple(
        "".join([th + p + w + ",%.12g\r\n" for p in phi])
        for th, w in zip(theta, weight)
    )


def write_bytes(pieces, path) -> str:
    """Write the byte pieces to `path`, in order; returns the SHA-256 of the
    bytes written, so no output file is read back to hash it.  Every output
    file is written here; text goes in as `map(str.encode, pieces)`, its
    UTF-8 bytes."""
    digest = hashlib.sha256()
    with open(path, "wb") as fh:
        for piece in pieces:
            digest.update(piece)
            fh.write(piece)
    return digest.hexdigest()


def _write_q_csv(rows: tuple[str, ...], values: np.ndarray, path: Path) -> str:
    """A Q table: the grid lines of `_q_csv_rows` filled in with the values,
    one theta row at a time; returns the SHA-256 of the bytes written."""
    return write_bytes(map(str.encode, itertools.chain(
        ["theta,phi,weight,value\r\n"],
        (row % tuple(v.tolist()) for row, v in zip(rows, values)),
    )), path)


def write_ppm(image: np.ndarray, path) -> str:
    """Binary P6 pixmap, row-major, top row first; returns the SHA-256 of the
    bytes written."""
    image = np.asarray(image)
    if image.ndim != 3 or image.shape[2] != 3 or image.dtype != np.uint8:
        raise ValueError("image must be an (H, W, 3) uint8 array")
    header = f"P6\n{image.shape[1]} {image.shape[0]}\n255\n".encode("ascii")
    return write_bytes([header, image.tobytes()], path)


def _block_template(dim: int) -> str:
    """The text json.dump(indent=1) prints for a dim x dim block of [re, im]
    pairs at the depth of a manifold's "block" value, with a %s per number."""
    pair = "[\n      %s,\n      %s\n     ]"
    row = "[\n     " + ",\n     ".join([pair] * dim) + "\n    ]"
    return "[\n    " + ",\n    ".join([row] * dim) + "\n   ]"


def _finite_texts(values: np.ndarray) -> list:
    """The float repr of each finite value, computed once per distinct
    magnitude (a Hermitian block holds each |x| twice); the sign is put back
    from np.signbit."""
    magnitudes, inverse = np.unique(np.abs(values).view(np.int64), return_inverse=True)
    texts = list(map(repr, magnitudes.view(float).tolist()))
    table = np.array(texts + ["-" + t for t in texts], dtype=object)
    return table[inverse + len(texts) * np.signbit(values)].tolist()


def _manifold_text(i: int, b: ManifoldBlock) -> str:
    """The text of manifold number i in the dump, with its leading separator;
    + 0.0 folds -0.0, so every zero, and each imaginary part of a real block, is 0.0."""
    values = np.ascontiguousarray(b.block, dtype=complex).view(float).ravel() + 0.0
    fields = tuple(_finite_texts(values))
    return (
        '%s{\n   "N": %d,\n   "P": %s,\n   "S": %s,\n   "block": %s,\n'
        '   "negligible": false,\n   "truncated": false\n  }'
        % (",\n  " if i else "[\n  ", b.photon_number, json.dumps(b.weight),
           json.dumps(b.spin), _block_template(b.dim) % fields)
    )


def dump_sector(sector: PolarizationSector, path) -> str:
    """JSON dump: the summed weight of the listed manifolds, then per manifold
    S the weight and the block as nested [re, im] pairs in m-descending order.
    A parsed sector holds only complete blocks above the weight floor, so
    "negligible" and "truncated", kept for readers of earlier dumps, are
    false.  Returns the SHA-256 of the bytes written.

    The text is what json.dump(..., indent=1, sort_keys=True) prints, built from
    a template per block size: a block's numbers, finite since `check_blocks`
    passed them, print as float repr, which is what json prints, and
    json.dumps spells the scalar fields.  It is written one manifold at a time.
    """
    captured = float(sum(b.weight for b in sector.blocks))
    return write_bytes(map(str.encode, itertools.chain(
        ['{\n "captured": %s,\n "manifolds": ' % json.dumps(captured)],
        itertools.starmap(_manifold_text, enumerate(sector.blocks)),
        ["\n ]\n}\n" if sector.blocks else "[]\n}\n"],
    )), path)


def emit_figure_tables(report: RunReport, outdir) -> dict:
    """Write the requested files and return a manifest with their hashes."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    config = report.config
    emit = set(config.emit)
    files: dict[str, str] = {}

    def put(name: str, write, *args) -> None:
        """Write one output file with `write(*args, path)` and record the
        SHA-256 the writer returns, taken from the bytes as written."""
        files[name] = write(*args, outdir / name)

    if "squeezing_csv" in emit:
        put("fig3a.csv", write_bytes,
            map(str.encode, [FIG3A_HEADER, *map(_fig3a_text, report.results)]))
        put("fig3c.csv", write_bytes, map(str.encode, [FIG3C_HEADER, *(
            _fmt(res.alpha) + "," + FIG3C_ROW % (res.total.xi2, res.total.xi2_db,
                                                 res.analytic_estimate, res.total.mode)
            for res in report.results)]))

    if "photon_csv" in emit:
        put("fig3b.csv", write_bytes, map(str.encode, [FIG3B_HEADER, *(
            _numbered_text([(_fmt(res.alpha) + ",", res.manifold_weights.tolist())])
            for res in report.results)]))

    if "multipole_csv" in emit:
        put("fig3d.csv", write_bytes,
            map(str.encode, [FIG3D_HEADER, *map(_fig3d_text, report.results)]))

    for i, res in enumerate(report.results):
        if "q_csv" in emit:
            put(f"q_total_alpha{i}.csv", _write_q_csv, _q_csv_rows(report.grid_l), res.q.values)
        if "heatmaps" in emit:
            for view in ("equirectangular", "x", "y", "z"):
                name = "equirect" if view == "equirectangular" else f"view_{view}"
                put(f"q_total_alpha{i}_{name}.ppm", write_ppm,
                    render_heatmap(res.q, view, config.raster_shape))
            put(f"foliation_alpha{i}_view_z.ppm", write_ppm, render_foliation(res.q))

    if "sector_json" in emit:
        for i, res in enumerate(report.results):
            put(f"sector_alpha{i}.json", dump_sector, res.sector)

    manifest = {
        "config": config.echo(),
        "files": files,
        "alphas": [res.alpha for res in report.results],
        "non_reference_alphas": sorted(
            {res.alpha for res in report.results} - set(REFERENCE_ALPHAS)
        ),
        "trace_deficit": {
            _fmt(res.alpha): res.trace_deficit for res in report.results
        },
    }
    write_bytes([json.dumps(manifest, indent=1, sort_keys=True).encode(), b"\n"],
                outdir / "manifest.json")
    return manifest
