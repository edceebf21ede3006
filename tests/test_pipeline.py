import ast
import csv
import dataclasses
import hashlib
import importlib
import inspect
import io
import json
import math
import os
import pkgutil
import re
import runpy
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest

import stokes_manifolds
from stokes_manifolds import (
    cli, fock, invariants, multipole, pipeline, polar, render, sphere, stokes,
)
from stokes_manifolds.cli import main
from stokes_manifolds.fock import ModeState, NoiseModel, synthesize_mode
from stokes_manifolds.polar import ManifoldBlock, PolarizationSector, parse_manifolds
from stokes_manifolds.stokes import (
    MODE_FULL,
    MODE_PERP,
    MODE_UNDEFINED,
    StokesSummary,
    _undefined_summary,
)
from stokes_manifolds.sphere import SphereGrid, build_quadrature_grid, husimi_total
from stokes_manifolds.pipeline import (
    DEFAULT_ALPHAS,
    EMIT_CHOICES,
    AlphaResult,
    ConfigError,
    NumericalGuardError,
    RunConfig,
    RunReport,
    emit_figure_tables,
    parse_config,
    run_sweep,
)

from oracles import (
    aggregate_weights,
    block_sum_total,
    csv_figure_tables,
    csv_writer_table,
    default_ladder_blocks,
    dense_moments,
    full_block,
    mesh,
    multipoles_loop,
    stokes_summary_single,
)

FAST = {
    "alphas": (0.0, 1.13),
    "cutoff_h": 12,
    "cutoff_v": 12,
    "s_report_max": 5.0,
    "grid_l": 20,
}


class TestConfig:
    def test_defaults(self):
        config = parse_config(None, {})
        assert config.alphas == DEFAULT_ALPHAS
        assert config.squeezing_db == 3.6
        assert config.antisqueezing_db == 4.4
        assert config.efficiency == 0.85
        assert config.cutoff_h == config.cutoff_v == 24
        assert config.resolved_s_report_max == 12.0
        assert config.resolved_grid_l == 48

    def test_echo(self):
        # the default echo is held by the bench reference test below
        config = RunConfig(alphas=(0, 2), raster_shape=[8, 16], grid_l=40,
                           s_report_max=5.3, apply_loss=False, emit=("q_csv",))
        assert json.loads(json.dumps(config.echo())) == {
            "alphas": [0.0, 2.0], "squeezing_db": 3.6, "antisqueezing_db": 4.4,
            "efficiency": 0.85, "apply_loss": False, "cutoff_h": 24, "cutoff_v": 24,
            "grid_l": 40, "s_report_max": 5.3, "out_dir": "out", "emit": ["q_csv"],
            "allow_complex_alpha": False, "raster_shape": [8, 16],
        }

    def test_json_file_with_overrides(self, tmp_path):
        doc = tmp_path / "config.json"
        doc.write_text(json.dumps({"efficiency": 0.5, "cutoff_h": 10}))
        config = parse_config(doc, {"efficiency": 0.9})
        assert config.efficiency == 0.9  # flags win
        assert config.cutoff_h == 10

    def test_unknown_keys_fatal(self, tmp_path):
        doc = tmp_path / "config.json"
        doc.write_text(json.dumps({"efficienci": 0.5}))
        with pytest.raises(ConfigError, match="efficienci"):
            parse_config(doc)

    def test_out_of_range_values(self):
        with pytest.raises(ConfigError):
            parse_config(None, {"efficiency": 1.5})
        with pytest.raises(ConfigError):
            parse_config(None, {"alphas": (-1.0,)})
        with pytest.raises(ConfigError):
            parse_config(None, {"antisqueezing_db": 1.0})  # below squeezing_db

    @pytest.mark.parametrize("out_dir", [5, None, ["a"], ""])
    def test_out_dir_must_be_a_path(self, tmp_path, out_dir):
        with pytest.raises(ConfigError, match="out_dir"):
            parse_config(_write(tmp_path, {"out_dir": out_dir}))

    def test_unknown_emit_flag(self):
        with pytest.raises(ConfigError, match="emit"):
            RunConfig(emit=("squeezing_csv", "plots"))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(tmp_path / "absent.json")

    @pytest.mark.parametrize("allow", [False, True])
    @pytest.mark.parametrize("alpha", [1 + 1j, 1 + 0j, "1.0"])
    def test_non_real_alpha_refused(self, alpha, allow):
        with pytest.raises(ConfigError, match="real"):
            RunConfig(alphas=(alpha,), allow_complex_alpha=allow)

    def test_negative_alpha_needs_flag(self):
        with pytest.raises(ConfigError, match="allow_complex_alpha"):
            RunConfig(alphas=(-1.13,))
        config = RunConfig(alphas=(-1.13, 0.0), allow_complex_alpha=True,
                           **{k: v for k, v in FAST.items() if k != "alphas"})
        assert config.echo()["alphas"] == [-1.13, 0.0]
        report = run_sweep(config)
        assert [type(r.alpha) for r in report.results] == [float, float]
        assert [r.alpha for r in report.results] == [-1.13, 0.0]


class TestSweep:
    def test_dedupe_warns(self):
        config = RunConfig(alphas=(0.0, 0.0, 1.0), **{k: v for k, v in FAST.items() if k != "alphas"})
        with pytest.warns(UserWarning, match="duplicate"):
            report = run_sweep(config)
        assert [r.alpha for r in report.results] == [0.0, 1.0]

    def test_guard_fails_before_compute(self):
        config = RunConfig(alphas=(0.0,), cutoff_h=6, cutoff_v=6, s_report_max=8.0)
        with pytest.raises(NumericalGuardError, match="cutoff"):
            run_sweep(config)

    def test_cutoff_warning(self):
        config = RunConfig(alphas=(3.0,), cutoff_h=12, cutoff_v=12, s_report_max=3.0)
        with pytest.warns(UserWarning, match="recommended"):
            run_sweep(config)

    def test_deficit_warning_raised_on_every_run(self):
        # a second sweep in the same process, with the mode caches warm, warns
        # again, once per amplitude, and raises no other warning
        config = RunConfig(alphas=(0.0, 0.57), cutoff_h=4, cutoff_v=4)
        for _ in range(2):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                run_sweep(config)
            messages = [str(w.message) for w in caught]
            assert len(messages) == len(config.alphas), messages
            for text, alpha in zip(messages, config.alphas):
                assert "recommended" in text and f"alpha={alpha}," in text, text

    def test_alphas_printed_alike_are_duplicates(self, tmp_path):
        config = RunConfig(**{**FAST, "alphas": (1.0, 1.0000000000001), "emit": ("squeezing_csv",)})
        with pytest.warns(UserWarning, match="duplicate alpha 1.0000000000001"):
            report = run_sweep(config)
        assert [r.alpha for r in report.results] == [1.0]
        manifest = emit_figure_tables(report, tmp_path)
        assert list(manifest["trace_deficit"]) == ["1"]
        assert manifest["alphas"] == [1.0]

    def test_negative_zero_alpha_reads_as_zero(self, tmp_path):
        # alpha -0.0 writes the rows, manifest keys and warnings of alpha 0,
        # not "-0"; cutoff 12 loses enough trace to warn
        emit = ("squeezing_csv", "photon_csv", "multipole_csv")
        manifests = []
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for name, alpha in (("neg", -0.0), ("pos", 0.0)):
                report = run_sweep(RunConfig(**{**FAST, "alphas": (alpha,), "emit": emit}))
                manifests.append(emit_figure_tables(report, tmp_path / name))
        messages = [str(w.message) for w in caught]
        assert any("of the trace at alpha=0.0" in m for m in messages), messages
        assert not any("alpha=-0" in m for m in messages), messages  # not the "e-06"
        names = sorted(p.name for p in (tmp_path / "pos").glob("*.csv"))
        assert names == ["fig3a.csv", "fig3b.csv", "fig3c.csv", "fig3d.csv"]
        for name in names:
            assert (tmp_path / "neg" / name).read_bytes() == (tmp_path / "pos" / name).read_bytes()
        neg, pos = manifests
        assert neg["alphas"] == pos["alphas"] and neg["trace_deficit"] == pos["trace_deficit"]
        assert list(neg["trace_deficit"]) == ["0"]

    def test_default_run_warns_nothing(self):
        # the largest trace deficit of the default sweep is 8.5e-9
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)
            run_sweep(RunConfig())

    def test_pure_alpha0_odd_manifolds_negligible(self):
        # every N: the parsed report range holds no odd N, whose P_N are below
        # the floor, then the blocks past it in full
        rho = synthesize_mode(NoiseModel(3.6, 3.6, 1.0), 0.0, 16)
        sector = parse_manifolds(rho, rho, 8.0)
        assert [b.photon_number for b in sector.blocks] == list(range(0, 17, 2))
        weights, _ = polar.photon_weights(rho.entries[None], rho.entries)
        assert (weights[0, 1:17:2] <= polar.WEIGHT_FLOOR).all()
        for n in range(17, 33, 2):
            assert np.trace(full_block(rho, rho, n)).real < 1e-12

    def test_sweep_parses_report_range_only(self, monkeypatch):
        # each manifold size up to S_report_max is gathered once, for every
        # amplitude at once, and no further; a range past either mode cutoff
        # is refused
        sizes = []

        def gather(h, v, n_total, *weights, _original=pipeline.gather_manifolds):
            sizes.append((n_total, len(h)))
            return _original(h, v, n_total, *weights)

        monkeypatch.setattr(pipeline, "gather_manifolds", gather)
        run_sweep(RunConfig(**FAST))
        top = int(2 * FAST["s_report_max"])
        assert sizes == [(n, len(FAST["alphas"])) for n in range(top + 1)]
        model = NoiseModel(3.6, 4.4, 0.85)
        wide, narrow = synthesize_mode(model, 1.13, 12), synthesize_mode(model, 0.0, 10)
        assert len(parse_manifolds(wide, narrow, 5.0).blocks) == 11
        for rho_h, rho_v in ((wide, narrow), (narrow, wide)):
            with pytest.raises(ValueError, match="up to 11"):
                parse_manifolds(rho_h, rho_v, 5.5)

    @pytest.mark.parametrize("s_max", [5.0, 5.3, 0.5])
    def test_results_keep_only_report_range(self, s_max):
        config = RunConfig(**{**FAST, "s_report_max": s_max, "emit": ("sector_json",)})
        for res in run_sweep(config).results:
            numbers = [b.photon_number for b in res.sector.blocks]
            assert numbers == list(range(int(2 * s_max) + 1))
            assert len(res.manifold_weights) == len(numbers)

    def test_report_fields_finite(self):
        report = run_sweep(RunConfig(**FAST))
        for res in report.results:
            assert math.isfinite(res.total.xi2)
            assert math.isfinite(res.analytic_estimate)
            assert res.trace_deficit < 1e-4
            assert np.all(np.isfinite(res.aggregated_weights))

    def test_convergence_in_cutoff(self):
        # raising the cutoff by 8 moves every reported xi^2 by less than 1e-3
        base = dict(alphas=DEFAULT_ALPHAS, s_report_max=8.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            lo = run_sweep(RunConfig(cutoff_h=24, cutoff_v=24, **base))
            hi = run_sweep(RunConfig(cutoff_h=32, cutoff_v=32, **base))
        for res_lo, res_hi in zip(lo.results, hi.results):
            assert abs(res_lo.total.xi2 - res_hi.total.xi2) < 1e-3
            for s_lo, s_hi in zip(res_lo.manifold_summaries, res_hi.manifold_summaries):
                assert abs(s_lo.xi2 - s_hi.xi2) < 1e-3


def _record_calls(monkeypatch, name, modules):
    """First arguments of every call to `name`, through each module binding it."""
    calls = []
    for module in modules:
        original = getattr(module, name, None)
        if original is None:
            continue

        def recording(*args, _original=original, **kwargs):
            calls.append(args[0])
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, recording)
    if not any(hasattr(module, name) for module in modules):
        raise AttributeError(f"no module in {modules} binds {name!r}")
    return calls


def _gathered_layers(monkeypatch):
    """The `polar.ManifoldLayer` of every `gather_manifolds` call the sweep
    makes, in call order."""
    layers = []

    def gather(*args, _original=pipeline.gather_manifolds):
        layers.append(_original(*args))
        return layers[-1]

    monkeypatch.setattr(pipeline, "gather_manifolds", gather)
    return layers


def _src_bindings(name):
    """Where `name` is bound in the package: as a module global, or as an
    attribute, dataclass field or parameter of a class or function that a
    module defines."""
    found = []
    for info in pkgutil.iter_modules(stokes_manifolds.__path__):
        module = importlib.import_module(f"stokes_manifolds.{info.name}")
        owners = [module, *(obj for obj in vars(module).values()
                            if getattr(obj, "__module__", None) == module.__name__)]
        for owner in owners:
            names = set(dir(owner))
            if dataclasses.is_dataclass(owner):
                names.update(f.name for f in dataclasses.fields(owner))
            if inspect.isfunction(owner):
                names.update(inspect.signature(owner).parameters)
            if name in names:
                found.append(f"{module.__name__}:{getattr(owner, '__name__', owner)}")
    return found


def _src_attribute_uses(attribute):
    """`module.function` for each use of an attribute named `attribute` in
    the package's source, by the innermost function around it
    (`module.<module>` outside every function)."""
    uses = []
    for path in sorted(Path(stokes_manifolds.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        functions = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr == attribute:
                owners = [f.name for f in functions if f.lineno <= node.lineno <= f.end_lineno]
                uses.append(f"{path.stem}.{owners[-1] if owners else '<module>'}")
    return uses


LADDER = (0.0, 0.31, 0.57, 0.88, 1.13, 1.62, 2.0, 2.31)


class TestComputedOnce:
    def test_vacuum_mode_synthesized_once_per_sweep(self, monkeypatch):
        calls = _record_calls(monkeypatch, "synthesize_mode", [pipeline])
        run_sweep(RunConfig(**FAST))
        assert len(calls) == len(FAST["alphas"]) + 1

    def test_core_built_once_and_no_eigensolver_in_synthesis(self, monkeypatch,
                                                             fresh_fock_caches):
        # the lossy core and the Laguerre coefficients are built once per
        # sweep, and no mode calls an np.linalg eigensolver
        squeezes = _record_calls(monkeypatch, "squeezed_thermal", [fock])
        modes = []

        def refuse(*args, **kwargs):
            raise AssertionError("an eigensolver ran in synthesis")

        def synthesize(*args, _original=pipeline.synthesize_mode):
            with monkeypatch.context() as patch:
                for name in ("eigh", "eig", "eigvalsh"):
                    patch.setattr(np.linalg, name, refuse)
                modes.append(_original(*args))
            return modes[-1]

        monkeypatch.setattr(pipeline, "synthesize_mode", synthesize)
        run_sweep(RunConfig())
        assert len(squeezes) == 1 and fock._laguerre_steps.cache_info().misses == 1
        assert len(modes) == len(DEFAULT_ALPHAS) + 1

    def test_multipoles_once_per_reported_block(self, monkeypatch):
        # one contraction per manifold size, over exactly the reported blocks
        # of that size, each once
        stacks = []

        def contract(two_s, blocks, _original=pipeline.multipole_stack):
            stacks.append((two_s, blocks))
            return _original(two_s, blocks)

        monkeypatch.setattr(pipeline, "multipole_stack", contract)
        report = run_sweep(RunConfig(**FAST))
        sizes = [two_s for two_s, _ in stacks]
        assert sizes == list(range(int(2 * FAST["s_report_max"]) + 1))
        for two_s, blocks in stacks:
            reported = [b.block for res in report.results
                        for b in res.sector.reported() if b.photon_number == two_s]
            assert len(blocks) == len(reported)
            for got, want in zip(blocks, reported):
                assert np.shares_memory(got, want) and np.array_equal(got, want)

    @pytest.mark.parametrize("name", ["gather_manifolds", "moment_stack", "multipole_stack",
                                      "diagonal_moments", "stokes_summaries"])
    def test_layer_calls_do_not_grow_with_amplitudes(self, monkeypatch, name):
        # each layer runs once per manifold size (or once per sweep) however
        # many amplitudes share it; the manifold moments come from the mode
        # diagonals, so no block's moments are taken
        counts = []
        for alphas in (LADDER[2:3], LADDER):
            calls = _record_calls(monkeypatch, name, [pipeline, stokes])
            run_sweep(RunConfig(alphas=alphas, emit=("multipole_csv",)))
            counts.append(len(calls))
            monkeypatch.undo()
        assert counts[0] == counts[1] == {"gather_manifolds": 25, "multipole_stack": 25,
                                          "moment_stack": 0}.get(name, 1)

    @pytest.mark.parametrize("module, name", [
        (polar, "parse_manifolds"), (multipole, "multipoles_algebraic"),
        (stokes, "manifold_stokes_summary"), (stokes, "total_stokes_summary"),
        (stokes, "_moments"), (stokes, "moment_stack"),
    ])
    def test_sweep_makes_no_per_block_call(self, monkeypatch, module, name):
        def refuse(*args, **kwargs):
            raise AssertionError(f"{name} called by the sweep")

        for binding in (module, pipeline):  # and the sweep's own import, if any
            if hasattr(binding, name):
                monkeypatch.setattr(binding, name, refuse)
        run_sweep(RunConfig(alphas=LADDER))

    def test_tables_need_no_scalar_clebsch_gordan(self):
        multipole.cg_table.cache_clear()
        run_sweep(RunConfig(**FAST))
        assert multipole.cg_table.cache_info().currsize > 0
        assert _src_bindings("clebsch_gordan") == []

    @pytest.mark.parametrize("name", [
        # kept only as test oracles, in tests/oracles.py
        "gaussian_total_xi2", "mean_photon_number",
        # P_N is read off the retained sector's blocks
        "photon_number_distribution", "photon_distribution",
        # folded into dump_sector, parse_manifolds and render_foliation
        "sector_to_json_dict", "weight_floor", "_silhouette_angles",
        # the figure tables print from row templates; csv.writer is the oracle's
        "_write_csv", "csv",
        # heatmaps and rings are scaled from 0
        "vmin",
        # one plan and one sampler draw every raster
        "_paint", "_ring_pixels", "_pixel_coords",
    ])
    def test_removed_names_stay_unbound(self, name):
        assert _src_bindings(name) == []

    def test_reduceat_in_one_function(self):
        # multipoles and Husimi rows share one diagonal contraction
        assert _src_attribute_uses("reduceat") == ["polar.diagonal_sums"]

    def test_one_writer_hashes_every_file(self):
        # every output file is written and hashed by one function, and no
        # other module imports hashlib
        assert _src_attribute_uses("sha256") == ["pipeline.write_bytes"]
        importers = []
        for path in sorted(Path(stokes_manifolds.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                names = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                         else [node.module] if isinstance(node, ast.ImportFrom) else [])
                importers += [path.stem for name in names if name == "hashlib"]
        assert importers == ["pipeline"]

    def test_no_private_names_imported_between_modules(self):
        # each module reaches another's functions by their public names
        private = []
        for path in sorted(Path(stokes_manifolds.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.ImportFrom) and node.level:
                    private += [f"{path.stem}:{alias.name}" for alias in node.names
                                if alias.name.startswith("_")]
        assert private == []

    def test_emission_makes_no_manifold_map(self, monkeypatch, tmp_path):
        # the totals sum Fourier rows and keep the equator rows the foliation
        # draws, so no per-manifold map is built; no block is contracted on
        # its own: each reported size is one stack of every amplitude's
        # reported blocks of that size, in spin order
        maps = _record_calls(monkeypatch, "husimi_manifold", [sphere, render, pipeline])
        stacks = _record_calls(monkeypatch, "husimi_rows", [sphere])
        report = run_sweep(RunConfig(emit=("q_csv", "heatmaps"), **FAST))
        emit_figure_tables(report, tmp_path)
        assert maps == []
        reported = [b for res in report.results for b in res.sector.reported()]
        sizes = sorted({b.dim for b in reported})
        assert [stack.shape[-1] for stack in stacks] == sizes
        for stack in stacks:
            want = [b.block for b in reported if b.dim == stack.shape[-1]]
            assert np.array_equal(stack, np.stack(want))

    @pytest.mark.parametrize("alphas", [LADDER[2:3], DEFAULT_ALPHAS], ids=len)
    def test_husimi_products_once_per_size(self, monkeypatch, tmp_path, alphas):
        # the sweep's one Husimi call takes the layers it has just gathered,
        # forms each layer's rows once, one table of coherent products, from
        # its live blocks as stored, however many amplitudes share it, and
        # builds one Fourier table for every map
        layers = _gathered_layers(monkeypatch)
        totals = _record_calls(monkeypatch, "husimi_totals", [pipeline])
        stacks = _record_calls(monkeypatch, "husimi_rows", [sphere])
        waves = _record_calls(monkeypatch, "fourier_table", [sphere])
        report = run_sweep(RunConfig(alphas=alphas, emit=("q_csv", "heatmaps")))
        emit_figure_tables(report, tmp_path)
        assert len(totals) == 1 and all(a is b for a, b in zip(totals[0], layers, strict=True))
        assert all(layer.live.any() for layer in layers) and len(layers) == 25
        assert all(stack is layer.blocks for stack, layer in zip(stacks, layers, strict=True))
        assert waves == [25]
        grid = build_quadrature_grid(report.grid_l)
        assert all(res.q.grid is grid for res in report.results)

    @pytest.mark.parametrize("emit", [("q_csv",), ("heatmaps",), EMIT_CHOICES,
                                      ("sector_json", "multipole_csv")], ids=",".join)
    def test_husimi_once_per_sweep(self, monkeypatch, emit):
        # the totals of every amplitude come from one call for an emit that
        # reads them, and from none otherwise
        totals = _record_calls(monkeypatch, "husimi_totals", [pipeline])
        report = run_sweep(RunConfig(emit=emit))
        wanted = bool(set(emit) & {"q_csv", "heatmaps"})
        assert len(totals) == wanted
        assert all((res.q is not None) == wanted for res in report.results)

    def test_emission_computes_no_husimi(self, monkeypatch, tmp_path):
        # the emitter renders and writes the sweep's totals; it contracts no
        # block and builds no coherent products
        report = run_sweep(RunConfig(emit=EMIT_CHOICES, **FAST))
        for module, name in [(pipeline, "husimi_totals"), (sphere, "husimi_totals"),
                             (sphere, "husimi_rows"), (sphere, "fourier_table"),
                             (sphere, "husimi_maps"), (polar, "diagonal_sums")]:
            def refuse(*args, _name=name, **kwargs):
                raise AssertionError(f"{_name} called by emission")

            monkeypatch.setattr(module, name, refuse)
        manifest = emit_figure_tables(report, tmp_path)
        assert len(manifest["files"]) == 4 + 7 * len(FAST["alphas"])  # 4 figure tables

    def test_check_takes_husimi_once(self, monkeypatch):
        # the suite reads each amplitude's total from the sweep
        totals = _record_calls(monkeypatch, "husimi_totals", [pipeline, sphere, invariants])
        report = run_sweep(RunConfig())
        assert all(value <= bound for _, value, bound in invariants.suite(report))
        assert len(totals) == 1

    def test_check_forms_each_oracle_once(self, monkeypatch, capsys):
        # one `check` runs one sweep, synthesizes only the sweep's modes (the
        # V mode once), forms one block-route Stokes summary per reported
        # block N > 0, and one Legendre table of its 25 orders on the theta
        # nodes alone, never on the 2-D mesh
        sweeps = _record_calls(monkeypatch, "run_sweep", [cli, pipeline])
        modes = _record_calls(monkeypatch, "synthesize_mode", [pipeline, fock])
        routes = _record_calls(monkeypatch, "manifold_stokes_summary", [invariants, stokes])
        tables = []

        def legendre(top, theta, _original=multipole.legendre_table):
            tables.append((top, np.ndim(theta)))
            return _original(top, theta)

        monkeypatch.setattr(multipole, "legendre_table", legendre)
        assert main(["check"]) == 0
        assert "all 11 checks passed" in capsys.readouterr().out
        assert len(sweeps) == 1 and len(modes) == 1 + len(DEFAULT_ALPHAS)
        assert len(routes) == 1 and len(routes[0]) == 96
        assert tables == [(24, 1)] and sum(top + 1 for top, _ in tables) <= 25

    def test_suite_forms_each_size_table_once(self, monkeypatch):
        # the default report's 100 blocks hold 25 sizes 2S = 0..24: each size
        # is stacked once, and its one stack gets one `husimi_rows` (one table
        # of coherent products) and one `multipole_stack`, as does each of the
        # 4 random blocks 2S = 1..4 (29 of each); each size's maps are one
        # `husimi_maps` call, and every map reads one `fourier_table`
        report = run_sweep(RunConfig())
        rows = _record_calls(monkeypatch, "husimi_rows", [invariants, sphere])
        mapped = _record_calls(monkeypatch, "husimi_maps", [invariants, sphere])
        stacked = []

        def contract(two_s, blocks, _original=multipole.multipole_stack):
            stacked.append((two_s, blocks))
            return _original(two_s, blocks)

        monkeypatch.setattr(multipole, "multipole_stack", contract)
        waves = _record_calls(monkeypatch, "fourier_table", [invariants, sphere])
        assert all(worst <= bound for _, worst, bound in invariants.suite(report))
        sizes = list(range(25)) + [1, 2, 3, 4]
        assert [stack.shape[-1] - 1 for stack in rows] == sizes
        assert [n for n, _ in stacked] == sizes
        assert waves == [25]
        reported = [b for res in report.results for b in res.sector.reported()]
        assert [len(f) for f in mapped] == [len(stack) for stack in rows[:25]]
        assert sum(map(len, mapped)) == len(reported)
        for (n, stack), formed in zip(stacked[:25], rows):
            assert formed is stack
            assert np.array_equal(stack, np.stack([b.block for b in reported
                                                   if b.photon_number == n]))

    def test_check_measures_each_cg_table_once(self, monkeypatch, capsys):
        # the Clebsch-Gordan line reads the deviation each cached table was
        # checked with when it was built: 25 Gram measures for 25 tables
        multipole.cg_table.cache_clear()
        measured = _record_calls(monkeypatch, "cg_table_deviation", [multipole])
        assert main(["check"]) == 0
        assert "all 11 checks passed" in capsys.readouterr().out
        assert len(measured) == multipole.cg_table.cache_info().currsize == 25


class TestEmitScope:
    """The weights and Stokes summaries come from the mode diagonals; the
    blocks are gathered only for an emit that reads them, and the multipoles
    contracted only for `multipole_csv`."""

    @staticmethod
    def _refuse(monkeypatch, *bindings):
        for module, name in bindings:
            def refuse(*args, _name=name, **kwargs):
                raise AssertionError(f"{_name} called")

            monkeypatch.setattr(module, name, refuse)

    def test_csv_run_gathers_no_block(self, monkeypatch):
        self._refuse(monkeypatch, (pipeline, "gather_manifolds"), (pipeline, "multipole_stack"),
                     (multipole, "cg_table"), (pipeline, "husimi_totals"))
        report = run_sweep(RunConfig(alphas=LADDER, emit=("squeezing_csv", "photon_csv")))
        for res in report.results:
            assert res.sector is None and res.manifold_multipoles == () and res.q is None
            assert res.aggregated_weights.shape == (0,) and len(res.manifold_weights) == 25

    def test_husimi_run_contracts_no_multipole(self, monkeypatch, tmp_path):
        self._refuse(monkeypatch, (pipeline, "multipole_stack"))
        layers = _gathered_layers(monkeypatch)
        report = run_sweep(RunConfig(alphas=(0.0, 1.13), s_report_max=5.0, grid_l=20,
                                     emit=("q_csv", "heatmaps")))
        assert len(layers) == 11
        for res in report.results:
            assert len(res.sector.blocks) == 11 and res.manifold_multipoles == ()
            assert res.q.spins == tuple(b.spin for b in res.sector.blocks)
        emit_figure_tables(report, tmp_path)

    def test_figure_tables_do_not_depend_on_emit(self, tmp_path):
        # fig3a-c read the same P_N and summaries whether or not blocks are
        # gathered
        for name, emit in (("csv", ("squeezing_csv", "photon_csv")), ("all", EMIT_CHOICES)):
            emit_figure_tables(run_sweep(RunConfig(emit=emit)), tmp_path / name)
        for name in ("fig3a.csv", "fig3b.csv", "fig3c.csv"):
            assert (tmp_path / "csv" / name).read_bytes() == (tmp_path / "all" / name).read_bytes()

    def test_weights_match_blocks(self):
        # P_N of the figure tables is the sectors' weight, and the summaries
        # are those of the live blocks N > 0
        for res in run_sweep(RunConfig(alphas=LADDER)).results:
            assert res.manifold_weights.tolist() == [b.weight for b in res.sector.blocks]
            spins = [b.spin for b in res.sector.reported() if b.spin]
            assert [s.spin for s in res.manifold_summaries] == spins

    def test_no_negative_photon_weight(self, tmp_path):
        # 44 of P_0..P_160 sum to below 0 by roundoff at alpha 7; they print 0
        config = RunConfig(alphas=(7.0,), cutoff_h=160, cutoff_v=160, emit=("photon_csv",))
        report = run_sweep(config)
        weights = report.results[0].manifold_weights
        assert len(weights) == 161 and not (weights < 0).any() and not np.signbit(weights).any()
        emit_figure_tables(report, tmp_path)
        rows = (tmp_path / "fig3b.csv").read_text().splitlines()[1:]
        assert len(rows) == 161 and not any(row.split(",")[2].startswith("-") for row in rows)



def _live_photons(alpha, cutoff):
    """The N <= cutoff whose P_N is above the weight floor, at alpha with the
    default noise model."""
    model = NoiseModel(3.6, 4.4, 0.85)
    rho_h, rho_v = synthesize_mode(model, alpha, cutoff), synthesize_mode(model, 0.0, cutoff)
    return np.flatnonzero(polar.photon_weights(rho_h.entries[None], rho_v.entries)[1][0, :cutoff + 1])


class TestLiveManifolds:
    """A block above the weight floor is the only kind of block a sweep
    gathers, keeps and dumps."""

    @pytest.mark.parametrize("alphas, cutoff", [((7.0,), 80), (DEFAULT_ALPHAS, 48)])
    def test_gathers_only_live_manifolds(self, monkeypatch, alphas, cutoff):
        layers = _gathered_layers(monkeypatch)
        report = run_sweep(RunConfig(alphas=alphas, cutoff_h=cutoff, cutoff_v=cutoff,
                                     emit=("sector_json",)))
        live = sorted({n for a in alphas for n in _live_photons(a, cutoff).tolist()})
        assert [layer.photons for layer in layers] == live and len(live) < cutoff + 1
        for a, res in enumerate(report.results):
            assert [b.photon_number for b in res.sector.blocks] == [
                layer.photons for layer in layers if layer.live[a]]

    def test_no_block_below_floor(self, monkeypatch):
        layers = _gathered_layers(monkeypatch)
        report = run_sweep(RunConfig(cutoff_h=48, cutoff_v=48, emit=("sector_json",)))
        assert layers
        for layer in layers:
            assert len(layer.weights) == len(layer.blocks) == np.count_nonzero(layer.live) > 0
            assert (layer.weights > polar.WEIGHT_FLOOR).all()
        for res in report.results:
            assert all(b.weight > polar.WEIGHT_FLOOR for b in res.sector.blocks)
            assert len(res.sector.blocks) < 49

    def test_blocks_of_wide_ladder_at_cutoff_160(self, monkeypatch):
        # alpha = 0, 0.5, ..., 7 held 162 MB of blocks below the floor beside
        # 6.5 MB of live ones; the sectors view the gathered arrays
        layers = _gathered_layers(monkeypatch)
        alphas = tuple(0.5 * k for k in range(15))
        report = run_sweep(RunConfig(alphas=alphas, cutoff_h=160, cutoff_v=160,
                                     emit=("sector_json",)))
        held = sum(a.nbytes for layer in layers for a in layer if isinstance(a, np.ndarray))
        assert held < 10e6, held
        blocks = [b.block for res in report.results for b in res.sector.blocks]
        assert len(blocks) == sum(len(layer.blocks) for layer in layers)
        assert all(any(np.shares_memory(block, layer.blocks) for layer in layers)
                   for block in blocks[::50])

    def test_sector_json_lists_live_manifolds(self, tmp_path):
        report = run_sweep(RunConfig(cutoff_h=48, cutoff_v=48, emit=("sector_json",)))
        emit_figure_tables(report, tmp_path)
        for i, res in enumerate(report.results):
            dump = json.loads((tmp_path / f"sector_alpha{i}.json").read_text())
            live = _live_photons(res.alpha, 48)
            assert [m["N"] for m in dump["manifolds"]] == live.tolist()
            assert [m["P"] for m in dump["manifolds"]] == res.manifold_weights[live].tolist()
            assert dump["captured"] == float(sum(res.manifold_weights[live].tolist()))
            assert all(m["negligible"] is m["truncated"] is False for m in dump["manifolds"])

    def test_no_live_manifold_in_report_range(self, tmp_path):
        # at alpha 7, P_0 and P_1 are below the floor: no block is gathered,
        # the sector is empty and the total Q is zero, with exit 0
        out = tmp_path / "out"
        doc = {"alphas": [7.0], "cutoff_h": 80, "cutoff_v": 80, "s_report_max": 0.5}
        assert main(["run", "--config", _write(tmp_path, doc), "--out", str(out)]) == 0
        dump = json.loads((out / "sector_alpha0.json").read_text())
        assert dump == {"captured": 0.0, "manifolds": []}
        assert (out / "fig3d.csv").read_bytes() == b"alpha,S,K,W_K\r\n7,total,0,0\r\n"
        values = [float(row.split(",")[3]) for row in
                  (out / "q_total_alpha0.csv").read_text().splitlines()[1:]]
        assert len(values) == 15 and not any(values)

    def test_spin_half_check_reads_by_spin(self, monkeypatch):
        # at alpha 7, P_1 is below the floor, so its sector has no S = 1/2
        # block, and the line reads only the summary of the S = 1/2 block of
        # the other
        read = []

        def gap(summary, _original=invariants.spin_half_xi2_gap):
            read.append(summary)
            return _original(summary)

        monkeypatch.setattr(invariants, "spin_half_xi2_gap", gap)
        report = run_sweep(RunConfig(alphas=(7.0, 1.13), cutoff_h=80, cutoff_v=80,
                                     s_report_max=6.0))
        line = next(row for row in invariants.suite(report) if row[0].startswith("one-photon"))
        assert line[0] == "one-photon manifold xi2 = 1, 1 amplitudes" and line[1] <= line[2]
        assert 0.5 not in [b.spin for b in report.results[0].sector.reported()]
        half = next(b for b in report.results[1].sector.reported() if b.spin == 0.5)
        assert half.weight > polar.WEIGHT_FLOOR
        assert [s.spin for s in read] == [0.5]
        assert read[0].xi2 == stokes.manifold_stokes_summary([half])[0].xi2

    @pytest.mark.parametrize("s_max, blocks", [(20.0, 30), (0.5, 0)])
    def test_check_lines_with_nothing_hold(self, s_max, blocks):
        # alpha 7 alone has no S = 1/2 block, and at S_max 1/2 none at all: a
        # line with nothing to check prints a count of 0 and holds
        report = run_sweep(RunConfig(alphas=(7.0,), cutoff_h=80, cutoff_v=80,
                                     s_report_max=s_max))
        lines = invariants.suite(report)
        assert len(lines) == 11 and all(worst <= bound for _, worst, bound in lines), lines
        assert lines[8] == ("one-photon manifold xi2 = 1, 0 amplitudes", 0.0, math.inf)
        assert lines[6][0] == (f"manifold Husimi integral, {blocks} reported blocks "
                               f"on grid L {4 * s_max:g}")

    def test_check_lines_at_run_size(self):
        # `run --alpha 7 --cutoff 160` reports 2S <= 81 on grid L 320: the
        # suite holds one size's rows and one map at a time beside the
        # amplitude's parts (152 MB traced when it kept every block's map),
        # with no (theta, phi) mesh array of harmonics, and ten lines hold; the
        # harmonic line reads 3.16e-12, above its bound, from the Gauss weights
        # that `numpy.polynomial.legendre.leggauss` gives at 321 nodes
        report = run_sweep(RunConfig(alphas=(7.0,), cutoff_h=160, cutoff_v=160,
                                     emit=("squeezing_csv", "multipole_csv", "q_csv")))
        tracemalloc.start()
        try:
            lines = invariants.suite(report)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 60e6, peak
        assert len(lines) == 11 and all(worst <= bound for _, worst, bound in lines[1:]), lines
        assert lines[0][0] == "spherical-harmonic orthonormality, degrees 0, 1, 80, 81 on grid L 320"
        assert 1e-12 < lines[0][1] < 1e-11 and lines[0][2] == 1e-12

def _gap(got, want) -> float:
    """Largest |got - want| over the largest |want|, 0 where both vanish."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    scale = np.max(np.abs(want), initial=0.0)
    return float(np.max(np.abs(got - want), initial=0.0) / scale) if scale else float(
        np.max(np.abs(got), initial=0.0))


def _summary_gap(got: StokesSummary, want: StokesSummary) -> float:
    """The largest relative gap of the Stokes fields; the mean vector's is
    taken relative to the spin, its natural scale, since a mean near 0 is a
    difference of moments near S."""
    assert got.mode == want.mode
    return max(_gap(got.mean, want.mean) * np.max(np.abs(want.mean)) / max(want.spin, 1e-300),
               *(_gap(getattr(got, f), getattr(want, f))
                 for f in ("spin", "gamma", "gamma_min", "direction", "xi2")))


class TestLayerMajorSweep:
    """A sweep analyses every amplitude at once, one manifold size at a time;
    each amplitude's results match the per-block oracles and do not depend on
    the others in the sweep."""

    @pytest.mark.parametrize("cutoffs", [(24, 24), (48, 48), (30, 20)], ids=str)
    @pytest.mark.parametrize("alphas", [LADDER[4:5], DEFAULT_ALPHAS, LADDER], ids=len)
    def test_matches_per_block_oracles(self, monkeypatch, alphas, cutoffs):
        contracted = []

        def contract(two_s, blocks, _original=pipeline.multipole_stack):
            rho = _original(two_s, blocks)
            contracted.append((two_s, blocks, rho))
            return rho

        monkeypatch.setattr(pipeline, "multipole_stack", contract)
        cutoff_h, cutoff_v = cutoffs
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # (30, 20) loses trace at 2.31
            report = run_sweep(RunConfig(alphas=alphas, cutoff_h=cutoff_h, cutoff_v=cutoff_v))
        model = NoiseModel(3.6, 4.4, 0.85)
        rho_v = synthesize_mode(model, 0.0, cutoff_v)
        negligible = 0
        for res in report.results:
            rho_h = synthesize_mode(model, res.alpha, cutoff_h)
            weights, live = polar.photon_weights(rho_h.entries[None], rho_v.entries)
            live = live[0, :len(res.manifold_weights)]
            negligible += np.count_nonzero(~live)
            assert [b.photon_number for b in res.sector.blocks] == np.flatnonzero(live).tolist()
            assert [b.weight for b in res.sector.blocks] == weights[0][:len(live)][live].tolist()
            for b in res.sector.blocks:
                want = full_block(rho_h, rho_v, b.photon_number)
                weight = float(np.trace(want).real)
                assert abs(b.weight - weight) <= 1e-15
                assert np.max(np.abs(b.block - want / weight)) <= 1e-15
            reported = res.sector.reported()
            spectra = [np.sum(np.abs(multipoles_loop(b)) ** 2, axis=1) for b in reported]
            assert [s for s, _ in res.manifold_multipoles] == [b.spin for b in reported if b.spin]
            for (_, got), want in zip(res.manifold_multipoles, spectra[1:]):
                assert np.max(np.abs(got - want)) <= 1e-15
            want = aggregate_weights([(b.weight, w) for b, w in zip(reported, spectra)])
            assert np.max(np.abs(res.aggregated_weights - want)) <= 1e-15
            spun = [b for b in reported if b.spin]
            assert len(res.manifold_summaries) == len(spun)
            for got, b in zip(res.manifold_summaries, spun):
                assert _summary_gap(got, stokes_summary_single(b)) <= 1e-13, b.spin
            assert _summary_gap(res.total, block_sum_total(rho_h, rho_v)) <= 1e-13, res.alpha
        # only cutoff 48 has manifolds below the weight floor in its report
        # range; (30, 20) has none, but its totals sum manifolds that straddle
        # a cutoff
        assert (negligible > 0) == (cutoffs == (48, 48))
        for two_s, blocks, rho in contracted:
            for block, got in zip(blocks, rho):
                want = multipoles_loop(ManifoldBlock(two_s / 2.0, 1.0, block))[:, two_s:]
                assert np.max(np.abs(got - want)) <= 1e-15, two_s

    def test_amplitude_alone_as_in_ladder(self):
        # --alpha 0.57 alone against the default ladder
        alone = run_sweep(RunConfig(alphas=(0.57,))).results[0]
        ladder = next(r for r in run_sweep(RunConfig()).results if r.alpha == 0.57)
        for got, want in zip(alone.sector.blocks, ladder.sector.blocks):
            assert got.weight == want.weight and _gap(got.block, want.block) <= 1e-14
        for (s1, w1), (s2, w2) in zip(alone.manifold_multipoles, ladder.manifold_multipoles,
                                      strict=True):
            assert s1 == s2 and _gap(w1, w2) <= 1e-14
        assert _gap(alone.aggregated_weights, ladder.aggregated_weights) <= 1e-14
        for got, want in zip(alone.manifold_summaries, ladder.manifold_summaries, strict=True):
            assert _summary_gap(got, want) <= 1e-14
        assert _summary_gap(alone.total, ladder.total) <= 1e-14

    def test_deficit_warnings_in_sweep_order(self):
        # one per amplitude, in sweep order, pointing at the caller
        alphas = (1.13, 0.0, 0.57)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            report = run_sweep(RunConfig(alphas=alphas, cutoff_h=4, cutoff_v=4))
        assert [str(w.message) for w in caught] == [
            f"cutoffs (4, 4) lose {res.trace_deficit:.3g} of the trace at alpha={res.alpha}, "
            "above 1e-06; a larger cutoff is recommended" for res in report.results]
        assert [res.alpha for res in report.results] == list(alphas)
        assert {(w.category, w.filename) for w in caught} == {(UserWarning, __file__)}


@pytest.fixture(scope="module")
def emitted(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("out")
    config = RunConfig(out_dir=str(outdir), **FAST)
    report = run_sweep(config)
    manifest = emit_figure_tables(report, outdir)
    return outdir, report, manifest


@pytest.fixture(scope="module")
def default_emitted(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("default")
    report = run_sweep(RunConfig(out_dir=str(outdir)))
    return outdir, report, emit_figure_tables(report, outdir)


class TestRealStates:
    """A real alpha gives a float64 mode, and the layers, multipoles, Stokes
    moments and Husimi rows keep that dtype; a complex alpha from the library
    keeps complex128 through the same functions."""

    def test_default_run_is_float64(self, monkeypatch):
        modes = []

        def recording(model, alpha, cutoff):
            modes.append(synthesize_mode(model, alpha, cutoff))
            return modes[-1]

        monkeypatch.setattr(pipeline, "synthesize_mode", recording)
        layers = _gathered_layers(monkeypatch)
        report = run_sweep(RunConfig())
        assert len(modes) == 5 and all(m.entries.dtype == np.float64 for m in modes)
        assert len(layers) == 25
        for layer in layers:
            assert layer.blocks.dtype == np.float64
            if len(layer.blocks):
                assert multipole.multipole_stack(layer.photons, layer.blocks).dtype == np.float64
                mean, second = stokes.moment_stack(layer.photons, layer.blocks)
                assert not mean[:, 1].any() and not second[:, 0, 1].any()  # <S_y> by type
        for res in report.results:
            assert res.total.mean[1] == 0.0
            assert all(b.block.dtype == np.float64 for b in res.sector.blocks)
        grid = build_quadrature_grid(report.grid_l)
        block = next(b for b in report.results[-1].sector.blocks if b.photon_number == 12)
        assert sphere.husimi_rows(block.block[None], grid).dtype == np.float64
        for res in report.results:
            assert res.q.values.dtype == res.q.equator.dtype == np.float64

    def test_complex_alpha_stays_complex(self):
        # the same kernels take a complex H mode, and agree with the dense
        # oracles on its blocks; the real V mode stays float64
        model = NoiseModel(3.6, 4.4, 0.85)
        v = synthesize_mode(model, 0.0, 12)
        h = synthesize_mode(model, 0.6 + 0.8j, 12)
        assert h.entries.dtype == np.complex128 and v.entries.dtype == np.float64
        weights, live = polar.photon_weights(h.entries[None], v.entries)
        layers = [polar.gather_manifolds(h.entries[None], v.entries, n, weights[:, n], live[:, n])
                  for n in range(7)]
        for layer in layers[2:]:
            n = layer.photons
            assert layer.blocks.dtype == np.complex128
            block = ManifoldBlock(n / 2.0, layer.weights[0], layer.blocks[0])
            rho = multipole.multipole_stack(n, layer.blocks)[0]
            assert rho.dtype == np.complex128 and np.abs(rho.imag).max() > 1e-6
            assert np.abs(rho - multipoles_loop(block)[:, n:]).max() < 1e-12
            mean, second = stokes.moment_stack(n, layer.blocks)
            assert abs(second[0, 0, 1]) > 1e-6  # Im<S+^2> / 2
            for got, want in zip((mean[0], second[0]), dense_moments(block)):
                assert np.abs(got - want).max() < 1e-12
        assert stokes.diagonal_moments([h], v)[3].dtype == np.float64
        q = sphere.husimi_totals(layers, 1, build_quadrature_grid(24))[0]
        captured = sum(layer.weights[0] for layer in layers)
        assert q.values.dtype == np.float64 and abs(q.integral() - captured) < 1e-12

    def test_printed_zeros(self, emitted):
        _assert_printed_zeros(*emitted[:2])

    def test_printed_zeros_default_run(self, default_emitted):
        _assert_printed_zeros(*default_emitted[:2])


def _assert_printed_zeros(outdir, report):
    """<S_x> and <S_y> print as exact zeros, so does <S_z> where the two modes
    are one state (alpha 0), and no numeric field of any file reads -0."""
    with open(outdir / "fig3a.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows and {r["mean_x"] for r in rows} == {r["mean_y"] for r in rows} == {"0"}
    assert {r["mean_z"] for r in rows if r["alpha"] == "0"} == {"0"}
    assert any(r["alpha"] == "0" for r in rows) and any(r["alpha"] != "0" for r in rows)
    for i in range(len(report.results)):
        dump = json.loads((outdir / f"sector_alpha{i}.json").read_text())
        imag = [pair[1] for m in dump["manifolds"] for row in m["block"] for pair in row]
        assert len(imag) > 100 and all(math.copysign(1.0, x) == 1.0 == x + 1.0 for x in imag)
    numbers = []
    for path in outdir.iterdir():
        if path.suffix == ".csv":
            with open(path, newline="") as fh:
                numbers += [field for row in csv.reader(fh) for field in row]
        elif path.suffix == ".json":
            json.loads(path.read_text(), parse_float=numbers.append, parse_int=numbers.append)
    zeros = [t for t in numbers if re.fullmatch(r"[-+]?[\d.]+(e[-+]?\d+)?", t) and float(t) == 0]
    assert len(zeros) > 1000 and not [t for t in zeros if t.startswith("-")]


class TestEmission:
    def test_all_files_present_and_hashed(self, emitted):
        outdir, _, manifest = emitted
        for name, digest in manifest["files"].items():
            path = outdir / name
            assert path.exists()
            assert len(digest) == 64
        assert (outdir / "manifest.json").exists()

    def test_manifest_hashes_match_files_on_disk(self, emitted):
        outdir, report, manifest = emitted
        assert report.config.emit == EMIT_CHOICES
        on_disk = {p.name for p in outdir.iterdir()} - {"manifest.json"}
        assert set(manifest["files"]) == on_disk and len(on_disk) == 4 + 7 * 2
        for name, digest in manifest["files"].items():
            assert digest == hashlib.sha256((outdir / name).read_bytes()).hexdigest(), name

    def test_hash_taken_from_written_bytes(self, tmp_path, monkeypatch):
        # every file is opened once, to write it; a sector dump of 0.3 MB is
        # hashed from the pieces written
        modes = []
        builtin_open = open

        def recording_open(file, mode="r", *args, **kwargs):
            modes.append((Path(file).name, mode))
            return builtin_open(file, mode, *args, **kwargs)

        monkeypatch.setattr("builtins.open", recording_open)
        report = run_sweep(RunConfig(alphas=(0.0,), cutoff_h=26, cutoff_v=26))
        manifest = emit_figure_tables(report, tmp_path)
        monkeypatch.undo()
        names = sorted(name for name, _ in modes)
        assert names == sorted([*manifest["files"], "manifest.json"])
        assert all(mode.startswith("w") for _, mode in modes), modes
        data = (tmp_path / "sector_alpha0.json").read_bytes()
        assert len(data) > 4 << 16
        assert manifest["files"]["sector_alpha0.json"] == hashlib.sha256(data).hexdigest()

    def test_squeezing_csv_schema(self, emitted):
        outdir, report, _ = emitted
        with open(outdir / "fig3a.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0].keys() == {
            "alpha", "S", "N", "P_S", "mean_x", "mean_y", "mean_z",
            "gamma_min", "xi2", "xi2_dB", "mode",
        }
        half = [r for r in rows if r["S"] == "0.5"]
        assert half
        for r in half:
            assert abs(float(r["xi2_dB"])) < 1e-6

    def test_fig3c_has_analytic_column(self, emitted):
        outdir, report, _ = emitted
        with open(outdir / "fig3c.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(report.results)
        for r, res in zip(rows, report.results):
            assert abs(float(r["xi2"]) - res.total.xi2) < 1e-10
            assert abs(float(r["analytic_estimate"]) - res.analytic_estimate) < 1e-10

    def test_multipole_csv_has_total_rows(self, emitted):
        outdir, _, _ = emitted
        with open(outdir / "fig3d.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert any(r["S"] == "total" for r in rows)
        assert all(float(r["W_K"]) >= 0.0 for r in rows)

    def test_photon_csv_normalized(self, emitted):
        outdir, report, _ = emitted
        with open(outdir / "fig3b.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        for res in report.results:
            total = sum(
                float(r["P_N"]) for r in rows if float(r["alpha"]) == res.alpha
            )
            want = sum(b.weight for b in res.sector.blocks)
            assert abs(total - want) < 1e-9
        assert max(int(r["N"]) for r in rows) == 10

    def test_sector_json_loads(self, emitted):
        outdir, _, _ = emitted
        doc = json.loads((outdir / "sector_alpha0.json").read_text())
        assert "manifolds" in doc and doc["manifolds"]

    def test_rfc4180_line_endings(self, emitted):
        outdir, _, _ = emitted
        data = (outdir / "fig3a.csv").read_bytes()
        assert b"\r\n" in data

    def test_ppm_rasters(self, emitted):
        outdir, _, _ = emitted
        data = (outdir / "q_total_alpha0_equirect.ppm").read_bytes()
        assert data.startswith(b"P6\n128 64\n255\n")

    def test_manifest_flags_non_reference_alphas(self, emitted):
        _, _, manifest = emitted
        assert manifest["non_reference_alphas"] == []  # 0 and 1.13 are reference values
        assert "config" in manifest

    def test_empty_emit_writes_only_manifest(self, tmp_path):
        config = RunConfig(out_dir=str(tmp_path), emit=(), **FAST)
        report = run_sweep(config)
        manifest = emit_figure_tables(report, tmp_path)
        assert manifest["files"] == {}
        assert sorted(p.name for p in tmp_path.iterdir()) == ["manifest.json"]

    def test_float_csv_bytes_match_csv_writer(self, tmp_path):
        # the Q-CSV writer must print what csv.writer over %.12g printed, grid
        # fields and values alike
        values = [0.0, -0.0, 1e-300, 1.0, 0.1234567890125, 999999999999.5,
                  123456789012.0, 1234567890123.0, 1e-5, 1e-4, -2.5e17, math.pi,
                  math.inf, -math.inf, math.nan, 5e-324]
        grid = _grid_of(theta=values, phi=values[::-1][:8], row_weights=values[::-1])
        q_values = np.array(values * 8).reshape(16, 8)
        _assert_q_csv_matches_csv_writer(tmp_path, grid, [q_values])

    def test_q_csv_shares_grid_lines_across_amplitudes(self, tmp_path):
        grid = build_quadrature_grid(12)
        rng = np.random.default_rng(5)
        amplitudes = [rng.normal(size=(grid.n_theta, grid.n_phi)) for _ in range(2)]
        _assert_q_csv_matches_csv_writer(tmp_path, grid, amplitudes)

    def test_q_csv_on_emitted_grid(self, emitted):
        # the emitted table against csv.writer over the full node mesh
        outdir, report, _ = emitted
        grid = build_quadrature_grid(report.grid_l)
        q = husimi_total(report.results[1].sector, grid, report.config.resolved_s_report_max)
        rows = np.stack([*mesh(grid), grid.weights, q.values], axis=-1).reshape(-1, 4)
        want = csv_writer_table(["theta", "phi", "weight", "value"], rows.tolist())
        assert (outdir / "q_total_alpha1.csv").read_bytes() == want

    def test_q_csv_peak_memory(self, tmp_path):
        # the writer it replaced (the whole table as one float array, printed
        # with one row template) peaked at 4.9 MB for one L 96 table
        grid = build_quadrature_grid(96)
        values = np.random.default_rng(7).random((grid.n_theta, grid.n_phi))
        pipeline._q_csv_rows.cache_clear()  # the templates are built in the window
        tracemalloc.start()
        try:
            pipeline._write_q_csv(pipeline._q_csv_rows(96), values, tmp_path / "q.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4.9e6, peak

    def test_q_csv_templates_built_once_per_grid(self, tmp_path):
        # every table of every emit on one grid shares its templates, and
        # only the grid last drawn on keeps them
        report = run_sweep(RunConfig(alphas=(0.0, 1.13), emit=("q_csv",)))
        pipeline._q_csv_rows.cache_clear()
        for name in ("a", "b"):
            emit_figure_tables(report, tmp_path / name)
        info = pipeline._q_csv_rows.cache_info()
        assert (info.misses, info.hits) == (1, 2 * len(report.results) - 1)
        assert info.maxsize == 1

    def test_determinism(self, tmp_path, fresh_size_arrays):
        # the first sweep builds every per-size array, the repeat reads them
        config = RunConfig(**FAST)
        dirs, built = [], []
        for name in ("a", "b"):
            sub = tmp_path / name
            report = run_sweep(config)
            emit_figure_tables(report, sub)
            dirs.append(sub)
            built.append(polar.diagonal_order.cache_info().misses)
        assert built[0] > 0 and built[1] == built[0]
        files_a = sorted(p.name for p in dirs[0].iterdir())
        files_b = sorted(p.name for p in dirs[1].iterdir())
        assert files_a == files_b
        for name in files_a:
            assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()

    def test_figure_tables_match_csv_writer(self, tmp_path):
        # the row templates print what csv.writer over %.12g printed, on the
        # paper's default study
        report = run_sweep(RunConfig(emit=("squeezing_csv", "photon_csv", "multipole_csv")))
        emit_figure_tables(report, tmp_path)
        for name, want in csv_figure_tables(report).items():
            assert (tmp_path / name).read_bytes() == want, name

    def test_figure_tables_match_csv_writer_on_edge_values(self, tmp_path):
        report = _edge_report()
        emit_figure_tables(report, tmp_path)
        tables = csv_figure_tables(report)
        for name, want in tables.items():
            assert (tmp_path / name).read_bytes() == want, name
        text = b"".join(tables.values()).decode()
        assert {"nan", "inf", "-inf", "-0", "1e-300", "1e+12", "4.94065645841e-324",
                "total", MODE_UNDEFINED} <= set(re.split("[,\r\n]+", text))
        assert "\r\n-0,1," in text  # alpha -0.0 and spin 1.0


def _edge_report() -> RunReport:
    """A CSV-only report whose rows hold every float %.12g spells apart
    (nan, +-inf, -0.0, the extremes and a half that rounds up), spin 1.0
    (printed 1), the total's rows and the undefined mode; the tables read no
    sector."""
    edge = [math.nan, math.inf, -math.inf, -0.0, 1e-300, 999999999999.5, 5e-324]
    summaries = (
        StokesSummary(0.5, np.array(edge[:3]), np.zeros((3, 3)), math.inf,
                      np.array([0.0, 0.0, 1.0]), -math.inf, MODE_PERP),
        StokesSummary(1.0, np.array(edge[3:6]), np.zeros((3, 3)), -0.0,
                      np.array([1.0, 0.0, 0.0]), 5e-324, MODE_FULL),
        _undefined_summary(1.5),
    )
    results = tuple(
        AlphaResult(
            alpha=alpha, manifold_weights=np.array([0.25, *edge]), sector=None,
            manifold_summaries=summaries, total=total,
            manifold_multipoles=((0.5, np.array(edge[:2])), (1.0, np.array(edge))),
            aggregated_weights=np.array(edge[::-1]), q=None, analytic_estimate=estimate,
            trace_deficit=0.0,
        )
        for alpha, total, estimate in [
            (-0.0, _undefined_summary(0.0), math.nan),
            (999999999999.5, summaries[1], 1e-300),
        ]
    )
    config = RunConfig(emit=("squeezing_csv", "photon_csv", "multipole_csv"))
    return RunReport(config=config, rho_v=None, results=results)


def _grid_of(theta, phi, row_weights):
    """A SphereGrid with the given nodes and a weight per theta row."""
    theta, phi, w = (np.array(x, dtype=float) for x in (theta, phi, row_weights))
    return SphereGrid(theta, phi, np.repeat(w[:, None], len(phi), axis=1), exactness=0)


def _assert_q_csv_matches_csv_writer(tmp_path, grid, amplitudes):
    # the templates built for `grid`, as for the quadrature grid of a degree
    with mock.patch.object(pipeline, "build_quadrature_grid", lambda degree: grid):
        lines = pipeline._q_csv_rows.__wrapped__(grid.exactness)
    for i, values in enumerate(amplitudes):
        path = tmp_path / f"q{i}.csv"
        pipeline._write_q_csv(lines, values, path)
        rows = [(th, ph, grid.weights[a, b], values[a, b])
                for a, th in enumerate(grid.theta.tolist())
                for b, ph in enumerate(grid.phi.tolist())]
        assert path.read_bytes() == csv_writer_table(["theta", "phi", "weight", "value"], rows)


class TestCli:
    def test_run_exit_codes(self, tmp_path):
        ok = main([
            "run", "--alpha", "0,1.13", "--cutoff", "12", "--grid-l", "20",
            "--out", str(tmp_path / "ok"), "--emit", "squeezing_csv",
        ])
        assert ok == 0
        assert (tmp_path / "ok" / "fig3a.csv").exists()

    def test_config_error_exit(self, tmp_path, capsys):
        code = main(["run", "--eta", "2.0", "--out", str(tmp_path)])
        assert code == 1
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("doc, key", [
        ({"cutoff_h": 12.5, "cutoff_v": 12.5}, "cutoff"),
        ({"cutoff_v": "24"}, "cutoff"),
        ({"cutoff_h": 24.0}, "cutoff"),
        ({"grid_l": 48.5}, "grid_l"),
    ])
    def test_non_integer_size_exit(self, tmp_path, capsys, doc, key):
        out = tmp_path / "out"
        code = main(["run", "--config", _write(tmp_path, doc), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert "config error" in err and key in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("key", ["squeezing_db", "antisqueezing_db", "s_report_max"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_float_exit(self, tmp_path, capsys, key, value):
        doc = {"cutoff_h": 8, "cutoff_v": 8, "alphas": [1.0], key: value}
        out = tmp_path / "out"
        code = main(["run", "--config", _write(tmp_path, doc), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert "config error" in err and key in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("shape", [[64], [0, 5], [-3, 5], [2.5, 4]])
    def test_bad_raster_shape_exit(self, tmp_path, capsys, shape):
        out = tmp_path / "out"
        code = main(["run", "--config", _write(tmp_path, {"raster_shape": shape}),
                     "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert "config error" in err and "raster_shape" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "value, key",
        [(v, k) for k in ("apply_loss", "allow_complex_alpha") for v in ("false", "no", 0, 1, None)]
        # and booleans where numbers belong: bool is an int in Python
        + [pytest.param(v, k, id=f"{v!r}-{k}") for v, k in (
            ([True], "alphas"), ([1.0, False], "alphas"), (True, "squeezing_db"),
            (True, "antisqueezing_db"), (True, "efficiency"), (False, "efficiency"),
            (True, "cutoff_h"), (True, "cutoff_v"), (True, "grid_l"), (False, "grid_l"),
            (True, "s_report_max"), ([True, 64], "raster_shape"), ([64, True], "raster_shape"),
        )]
        # and a string or a number where a list belongs
        + [pytest.param(v, k, id=f"{v!r}-{k}") for v, k in (
            ("q_csv", "emit"), (1.0, "alphas"), ("1.5", "alphas"),
        )],
    )
    def test_non_boolean_flag_exit(self, tmp_path, capsys, key, value):
        doc = {"apply_loss": True, "alphas": [1.0], "allow_complex_alpha": False,
               "cutoff_h": 8, "cutoff_v": 8, key: value}
        out = tmp_path / "out"
        code = main(["run", "--config", _write(tmp_path, doc), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert "config error" in err and key in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("out_dir", [5, None, ["a"], ""])
    def test_bad_out_dir_exit(self, tmp_path, capsys, monkeypatch, out_dir):
        # refused before the sweep, so no mode is synthesized and no file written
        calls = _record_calls(monkeypatch, "synthesize_mode", [pipeline])
        config = _write(tmp_path, {"out_dir": out_dir})
        monkeypatch.chdir(tmp_path)
        code = main(["run", "--config", config])
        err = capsys.readouterr().err
        assert code == 1 and calls == []
        assert err.startswith("config error: out_dir") and "Traceback" not in err
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]

    def test_fractional_report_range_runs(self, tmp_path):
        # S_max = 5.3 reports N <= 10, which cutoff 10 holds and grid_l 20 resolves
        doc = {"cutoff_h": 10, "cutoff_v": 10, "s_report_max": 5.3, "grid_l": 20}
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # cutoff 10 loses trace at alpha 2.31
            assert main(["run", "--config", _write(tmp_path, doc), "--out", str(out)]) == 0
        rows = csv.DictReader(io.StringIO((out / "fig3b.csv").read_text(encoding="utf-8")))
        assert {int(r["N"]) for r in rows} == set(range(11))

    def test_guard_exit(self, tmp_path, capsys):
        code = main([
            "run", "--alpha", "0", "--cutoff", "24", "--out", str(tmp_path),
            "--config", _write(tmp_path, {"s_report_max": 20.0}),
        ])
        assert code == 2
        assert "numerical guard" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv", [["--grid-l", "4", "--emit", "q_csv"], ["--grid-l", "0", "--emit", "heatmaps"],
                 ["--grid-l", "4"]],
    )
    def test_grid_guard_exit(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        code = main(["run", *argv, "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert "numerical guard" in err and "grid_l" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["--alpha", "20"], ["--alpha", "1e300"], ["--cutoff", "4"],
        ["--sq-db", "1e5", "--anti-db", "1e5"], ["--sq-db", "0", "--anti-db", "7000"],
        ["--sq-db", "1e5", "--anti-db", "1e5", "--eta", "0"],
        ["--sq-db", "0", "--anti-db", "7000", "--eta", "0"],
        ["--sq-db", "0", "--anti-db", "6168", "--eta", "0"],  # nbar overflows, cosh 2r does not
    ], ids=["20", "1e300", "cutoff4", "cosh-overflow", "nbar-overflow", "cosh-overflow-eta0",
            "nbar-overflow-eta0", "nbar-only-overflow-eta0"])
    def test_mean_photon_guard_exit(self, tmp_path, capsys, monkeypatch, argv):
        # the closed form refuses wrong numbers (a trace deficit of 8.5e-8 at
        # alpha 20; alpha 2.31 at cutoff 4) or an overflow before any mode is
        # synthesized, so no truncation warning comes first; an overflowing
        # cosh 2r or nbar reads as an infinite mean photon number at any eta
        calls = _record_calls(monkeypatch, "synthesize_mode", [pipeline])
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["run", *argv, "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2 and not out.exists()
        assert "numerical guard" in err and "mean photon number" in err, err
        cutoff = argv[1] if argv[0] == "--cutoff" else "24"
        assert f"cutoff {cutoff};" in err and "Traceback" not in err
        assert caught == [] and calls == []
        if "--sq-db" in argv:
            assert "mean photon number inf exceeds" in err, err

    def test_displacement_underflow_guard_exit(self, tmp_path, capsys, monkeypatch):
        # at eta 0.85, alpha 42 displaces by |beta|^2 = 1499.4, where the seeds
        # of D's small diagonals underflow; the mean-photon guard admits it at
        # cutoff 1600, and this one refuses it before any mode is synthesized
        calls = _record_calls(monkeypatch, "synthesize_mode", [pipeline])
        out = tmp_path / "out"
        code = main(["run", "--alpha", "42", "--cutoff", "1600", "--emit", "squeezing_csv",
                     "--out", str(out)])
        assert code == 2 and not out.exists() and calls == []
        assert capsys.readouterr().err == (
            "numerical guard: alpha=42.0: the H mode's displacement |sqrt(eta) alpha|^2 = "
            "1499.4 exceeds 1416, where D underflows\n")

    def test_corrupt_cg_table_exit(self, tmp_path, capsys, corrupt_cg_tables):
        code = main(["run", "--alpha", "0", "--out", str(tmp_path), "--emit", "multipole_csv"])
        err = capsys.readouterr().err
        assert code == 2
        assert "numerical guard" in err and "not orthonormal" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("kind", ["nan", "non-Hermitian", "trace"])
    def test_bad_block_guard_exit(self, tmp_path, capsys, monkeypatch, kind):
        # one amplitude's H mode, changed past ModeState's check, gives one bad
        # manifold among good ones; the run stops with that block's message
        # as a numerical guard, before any file is written
        model = NoiseModel(3.6, 4.4, 0.85)
        v = synthesize_mode(model, 0.0, 8).entries
        n_total, entries = 3, synthesize_mode(model, 0.57, 8).entries.copy()
        if kind == "nan":
            entries[1, 3] = math.nan
        elif kind == "non-Hermitian":
            entries[1, 3] += 1e-3
        else:  # P_3 cancels to 1.1e-11, and the block's trace over it misses 1 by 4.8e-7
            entries[3, 3] = -sum(entries[j, j] * v[3 - j, 3 - j] for j in range(3)) / v[0, 0] * (
                1 - 4e-10)
        entries.setflags(write=False)
        block = full_block(SimpleNamespace(cutoff=8, entries=entries),
                           SimpleNamespace(cutoff=8, entries=v), n_total)
        block = block / polar.photon_weights(entries[None], v)[0][0, n_total]
        dev = np.max(np.abs(block - block.conj().T))
        trace = np.trace(block).real
        if kind == "trace":
            assert dev == 0.0 and abs(trace - 1.0) > 1e-10
            message = f"block trace {trace} is not 1"
        else:
            message = f"ManifoldBlock is not Hermitian (max deviation {dev:.3e})"
        synthesize = pipeline.synthesize_mode

        def spoiled(model, alpha, cutoff):
            state = synthesize(model, alpha, cutoff)
            if alpha == 0.57:
                object.__setattr__(state, "entries", entries)
            return state

        monkeypatch.setattr(pipeline, "synthesize_mode", spoiled)
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            code = main(["run", "--alpha", "0,0.57,1.13", "--cutoff", "8", "--out", str(out)])
        assert code == 2 and not out.exists()
        assert capsys.readouterr().err == f"numerical guard: {message}\n"

    def test_reported_time_covers_emission(self, tmp_path, monkeypatch, capsys):
        emit = cli.emit_figure_tables

        def slow_emit(*args, **kwargs):
            time.sleep(0.3)
            return emit(*args, **kwargs)

        monkeypatch.setattr(cli, "emit_figure_tables", slow_emit)
        code = main(["run", "--alpha", "0", "--cutoff", "4", "--out", str(tmp_path),
                     "--emit", "squeezing_csv"])
        assert code == 0
        line = capsys.readouterr().out.splitlines()[0]
        assert line.startswith("wrote 2 files") and line.endswith("s"), line
        assert float(line.rsplit(" in ", 1)[1][:-1]) >= 0.3, line

    def test_zero_efficiency_prints_undefined_totals(self, tmp_path, capsys):
        # eta 0 leaves only the vacuum manifold: fig3a has no row and every
        # total is undefined, while analytic_estimate ignores eta (README,
        # Outputs)
        code = main(["run", "--eta", "0", "--emit", "squeezing_csv", "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "fig3a.csv").read_bytes() == pipeline.FIG3A_HEADER.encode()
        assert (tmp_path / "fig3c.csv").read_bytes() == (
            pipeline.FIG3C_HEADER + "0,nan,nan,0,undefined\r\n"
            "0.57,nan,nan,0.467339370734,undefined\r\n"
            "1.13,nan,nan,0.579347712577,undefined\r\n"
            "2.31,nan,nan,0.617788008835,undefined\r\n").encode()
        assert capsys.readouterr().out.count("xi2_total=nan (+nan dB)") == 4

    def test_truncated_total_exits_zero(self, tmp_path):
        # alpha 4.9 passes the mean-photon guard at cutoff 24 but loses 0.126
        # of the trace: one warning and exit 0, a total 16 % off the one at
        # cutoff 40, and fig3a rows that agree with it (README, Outputs)
        tables = {}
        for cutoff in (24, 40):
            out = tmp_path / str(cutoff)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = main(["run", "--alpha", "4.9", "--cutoff", str(cutoff),
                             "--emit", "squeezing_csv", "--out", str(out)])
            assert code == 0
            messages = [str(w.message) for w in caught]
            assert len(messages) == (cutoff == 24), messages
            assert all("lose 0.126 of the trace at alpha=4.9" in m for m in messages)
            tables[cutoff] = [list(csv.reader(io.StringIO((out / name).read_text())))[1:]
                              for name in ("fig3a.csv", "fig3c.csv")]
        xi2 = {cutoff: float(tables[cutoff][1][0][1]) for cutoff in tables}
        assert abs(xi2[24] - 0.651466774916) < 1e-9 and abs(xi2[40] - 0.561947) < 1e-6
        rows_24, rows_40 = tables[24][0], tables[40][0]
        assert [row[1] for row in rows_24] == [row[1] for row in rows_40[:len(rows_24)]]
        for low, high in zip(rows_24, rows_40):
            for field in (3, 6, 7, 8):  # P_S, mean_z, gamma_min, xi2
                assert abs(float(low[field]) / float(high[field]) - 1.0) < 1e-9, (low, field)

    def test_one_truncation_warning_per_amplitude(self, tmp_path):
        # the only truncation warning names the user's cutoffs, never the
        # padded size the modes are built at
        alphas = (0.0, 0.57, 1.13)
        proc = _run_python(["-m", "stokes_manifolds.cli", "run", "--cutoff", "4",
                            "--alpha", ",".join(map(str, alphas)),
                            "--emit", "photon_csv", "--out", str(tmp_path / "out")])
        assert proc.returncode == 0, proc.stderr
        lines = [ln for ln in proc.stderr.splitlines() if "Warning" in ln]
        assert len(lines) == len(alphas), proc.stderr
        for line, alpha in zip(lines, alphas):
            assert "UserWarning: cutoffs (4, 4) lose " in line and f"alpha={alpha}," in line
            assert re.findall(r"cutoffs? \(?([\d, ]+)", line) == ["4, 4"], line

    def test_bad_alpha_list(self, tmp_path):
        assert main(["run", "--alpha", "0,banana", "--out", str(tmp_path)]) == 1

    def test_check_passes(self, capsys):
        assert main(["check"]) == 0
        out = capsys.readouterr().out
        assert "all 11 checks passed" in out and "FAIL" not in out
        blocks = len(default_ladder_blocks(24))  # what run_sweep(RunConfig()) reports
        line = f"[ok] scaled dual-route multipoles, {blocks} reported blocks on grid L 48: worst "
        assert blocks == 100 and RunConfig().resolved_grid_l == 48 and line in out, out
        # the tenth line: the 96 reported manifolds N > 0 of the two Stokes routes
        tenth = out.splitlines()[9]
        assert tenth.startswith("[ok] Stokes moments of the mode diagonals against moment_stack, "
                                "96 reported blocks: worst "), out
        assert float(tenth.split("worst ")[1].split(",")[0]) <= 1e-12
        # the eleventh: photon-number parity, whose worst value is exactly 0
        assert out.splitlines()[10] == (
            "[ok] photon-number parity zeros, V mode, 100 reported blocks, their multipoles "
            "and 96 mean Stokes vectors: worst 0.00e+00, bound 0")

    def test_suite_holds_at_cutoff_48(self):
        # every line holds on the sweep of `run --cutoff 48` with every emit
        lines = invariants.suite(run_sweep(RunConfig(cutoff_h=48, cutoff_v=48)))
        assert len(lines) == 11 and all(worst <= bound for _, worst, bound in lines), lines
        assert lines[2][0] == "scaled dual-route multipoles, 134 reported blocks on grid L 96"

    def test_parity_gap_finds_one_odd_entry(self):
        config = RunConfig(**FAST)
        report = run_sweep(config)
        rho_v = synthesize_mode(config.noise_model, 0.0, config.cutoff_v)
        blocks = [b for res in report.results for b in res.sector.reported()]
        summaries = [s for res in report.results for s in res.manifold_summaries]
        stacks = [np.stack([b.block for b in blocks if b.photon_number == n])
                  for n in sorted({b.photon_number for b in blocks})]
        rhos = [multipole.multipole_stack(len(s[0]) - 1, s) for s in stacks]
        assert invariants.parity_gap(rho_v, stacks, rhos, summaries) == (0.0, 0.0)
        i = next(k for k, s in enumerate(stacks) if len(s[0]) == 7)
        tampered = [s.copy() for s in stacks]
        tampered[i][0, 2, 3] = tampered[i][0, 3, 2] = 1e-300
        assert invariants.parity_gap(rho_v, tampered, rhos, summaries)[0] == 1e-300
        odd = [r.copy() for r in rhos]
        odd[i][0, 3, 1] = 1e-300
        assert invariants.parity_gap(rho_v, stacks, odd, summaries)[0] == 1e-300
        summaries[0] = dataclasses.replace(summaries[0], mean=np.array([0.0, 1e-300, 0.5]))
        assert invariants.parity_gap(rho_v, stacks, rhos, summaries)[0] == 1e-300
        entries = rho_v.entries.copy()
        entries[0, 1] = entries[1, 0] = -1e-300
        tilted = ModeState(rho_v.cutoff, entries)
        assert invariants.parity_gap(tilted, stacks, rhos, summaries[1:])[0] == 1e-300

    def test_check_guard_exit(self, capsys, corrupt_cg_tables):
        assert main(["check"]) == 2
        err = capsys.readouterr().err
        assert "numerical guard" in err and "not orthonormal" in err

    @pytest.mark.parametrize("value", [1e-11, math.nan])
    def test_check_fails(self, capsys, monkeypatch, value):
        monkeypatch.setattr(invariants, "loss_trace_gap", lambda state, eta: (value, 1e-12))
        assert main(["check"]) == 2
        out, err = capsys.readouterr()
        assert [ln for ln in out.splitlines() if "FAIL" in ln] == [
            f"[FAIL] loss channel trace, the run's squeezed thermal core on 47 levels at eta 0.85: "
            f"worst {value:.2e}, bound 1e-12"]
        assert err == f"1 of {out.count(chr(10))} checks failed\n"

    @pytest.mark.parametrize("apply_loss, label", [(True, "0.85"), (False, "1")])
    def test_loss_line_checks_the_run_core(self, monkeypatch, apply_loss, label):
        # the loss line checks the core the run builds, squeezed thermal at the
        # model's r and nbar on the padded levels, at the eta the run applied:
        # 1 when apply_loss is false, whatever `efficiency` says
        checked = []

        def gap(state, eta, _original=invariants.loss_trace_gap):
            checked.append((state, eta))
            return _original(state, eta)

        monkeypatch.setattr(invariants, "loss_trace_gap", gap)
        config = RunConfig(alphas=(0.0,), apply_loss=apply_loss, emit=("squeezing_csv",))
        name, worst, bound = invariants.suite(run_sweep(config))[7]
        assert name == ("loss channel trace, the run's squeezed thermal core on 47 levels "
                        f"at eta {label}")
        assert worst <= 1e-15 and bound == 1e-12
        model = config.noise_model
        [(state, eta)] = checked
        assert eta == model.efficiency == float(label)
        core = fock.squeezed_thermal(model.squeeze_parameter, model.thermal_occupation, 46)
        assert np.array_equal(state.entries, ModeState(46, core).entries)

    def test_run_leaves_the_suite_unloaded(self, tmp_path):
        # only `check` imports the invariant suite, so a cold `run` never
        # compiles or executes it
        script = (
            "import sys\n"
            "from stokes_manifolds.cli import main\n"
            "code = main(['run', '--alpha', '0', '--cutoff', '12', '--grid-l', '24',"
            f" '--out', {str(tmp_path)!r}])\n"
            "print('exit', code, 'stokes_manifolds.invariants' in sys.modules)\n"
        )
        proc = _run_python(["-c", script])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "exit 0 False", proc.stdout

    def test_default_run_same_bytes_at_one_and_two_blas_threads(self, tmp_path):
        # every file keeps its bytes from one BLAS thread to two, at the
        # default config, at cutoff 48 with every emit and at alpha 7 with
        # cutoff 160; synthesis forms only real products, and at these
        # configs no later stage moves a byte either
        for argv, count in (([], 32), (["--cutoff", "48"], 32),
                            (["--alpha", "7", "--cutoff", "160",
                              "--emit", "squeezing_csv,multipole_csv,q_csv"], 4)):
            files = []
            for threads in ("1", "2"):
                out = tmp_path / f"{len(argv)}-{threads}"
                proc = _run_python(["-m", "stokes_manifolds.cli", "run", *argv, "--out", str(out)],
                                   OPENBLAS_NUM_THREADS=threads)
                assert proc.returncode == 0, proc.stderr
                files.append(json.loads((out / "manifest.json").read_text())["files"])
            assert len(files[0]) == count and files[0] == files[1], argv

    def test_runs_without_scipy(self, tmp_path):
        # numpy is the only runtime dependency: with scipy's import blocked,
        # `check` and a small run still succeed
        out = tmp_path / "out"
        script = (
            "import sys\n"
            "sys.modules['scipy'] = None\n"
            "from stokes_manifolds.cli import main\n"
            "codes = [main(['check']), main(['run', '--alpha', '0,1.13', '--cutoff', '12',"
            f" '--grid-l', '24', '--out', {str(out)!r}])]\n"
            "print('exit codes', *codes)\n"
        )
        proc = _run_python(["-c", script])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "exit codes 0 0", proc.stdout
        assert (out / "manifest.json").exists()

    def test_husimi_emit_leaves_numpy_ma_out(self, tmp_path):
        # np.unique without return_inverse imports numpy.ma (9-18 ms in a
        # fresh process); an L 96 Husimi emit, whose contraction runs are
        # narrower than a layer, needs none of it
        script = (
            "import sys\n"
            "from stokes_manifolds import pipeline\n"
            f"config = pipeline.RunConfig(grid_l=96, emit=('q_csv',), out_dir={str(tmp_path)!r})\n"
            "pipeline.emit_figure_tables(pipeline.run_sweep(config), config.out_dir)\n"
            "print(sorted(m for m in sys.modules if m.split('.')[:2] == ['numpy', 'ma']))\n"
        )
        proc = _run_python(["-c", script])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]", proc.stdout
        assert (tmp_path / "q_total_alpha3.csv").exists()


def _run_python(args, **env):
    """A fresh interpreter that imports this package, run on `args` with the
    environment variables `env` added."""
    src = str(Path(stokes_manifolds.__file__).parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path, **env}, timeout=300,
    )


BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture(scope="module")
def bench_check():
    """The globals of bench/check.py; run_path writes no bytecode cache there."""
    return runpy.run_path(str(BENCH / "check.py"))


@pytest.mark.parametrize("workload,config", [
    ("cli_default", {}),
    ("qmap_fine", {"grid_l": 96, "emit": ["q_csv", "heatmaps"]}),
])
def test_outputs_match_bench_reference(tmp_path, bench_check, workload, config):
    # the benchmark's own output gate: 1e-9 relative, 1e-12 absolute, one
    # colormap step per pixel
    out = tmp_path / "out"
    assert main(["run", "--config", _write(tmp_path, config), "--out", str(out)]) == 0
    reference = bench_check["load_reference"](BENCH / "reference" / f"{workload}.tar.xz")
    assert bench_check["compare_dir"](out, reference) == []


def _write(tmp_path, doc):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return str(path)
