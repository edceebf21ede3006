import csv
import json
import math
import os
import subprocess
import sys
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import stokes_manifolds
from stokes_manifolds import multipole, pipeline, render, sphere
from stokes_manifolds.cli import main
from stokes_manifolds.pipeline import (
    DEFAULT_ALPHAS,
    EMIT_CHOICES,
    ConfigError,
    NumericalGuardError,
    RunConfig,
    emit_figure_tables,
    parse_config,
    run_sweep,
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

    def test_unknown_emit_flag(self):
        with pytest.raises(ConfigError, match="emit"):
            RunConfig(emit=("squeezing_csv", "plots"))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(tmp_path / "absent.json")


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

    def test_default_run_warns_nothing(self):
        # the largest trace deficit of the default sweep is 8.5e-9
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)
            run_sweep(RunConfig())

    def test_pure_alpha0_odd_manifolds_negligible(self):
        config = RunConfig(
            alphas=(0.0,), squeezing_db=3.6, antisqueezing_db=3.6,
            efficiency=1.0, cutoff_h=16, cutoff_v=16, s_report_max=6.0,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            report = run_sweep(config)
        for n, p in report.results[0].photon_distribution:
            if n % 2 == 1:
                assert p < 1e-12

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
    return calls


def _reported_block_ids(report):
    s_max = report.config.resolved_s_report_max
    return Counter(id(b) for res in report.results for b in res.sector.reported(s_max))


class TestComputedOnce:
    def test_vacuum_mode_synthesized_once_per_sweep(self, monkeypatch):
        calls = _record_calls(monkeypatch, "synthesize_mode", [pipeline])
        run_sweep(RunConfig(**FAST))
        assert len(calls) == len(FAST["alphas"]) + 1

    def test_multipoles_once_per_reported_block(self, monkeypatch):
        calls = _record_calls(monkeypatch, "multipoles_algebraic", [pipeline, multipole])
        report = run_sweep(RunConfig(**FAST))
        assert Counter(map(id, calls)) == _reported_block_ids(report)

    def test_tables_need_no_scalar_clebsch_gordan(self, monkeypatch):
        multipole.cg_table.cache_clear()
        calls = _record_calls(monkeypatch, "clebsch_gordan", [multipole])
        run_sweep(RunConfig(**FAST))
        assert calls == []

    def test_manifold_q_once_per_reported_block(self, monkeypatch, tmp_path):
        report = run_sweep(RunConfig(emit=("q_csv", "heatmaps"), **FAST))
        calls = _record_calls(monkeypatch, "husimi_manifold", [sphere, render])
        emit_figure_tables(report, tmp_path)
        assert Counter(map(id, calls)) == _reported_block_ids(report)


@pytest.fixture(scope="module")
def emitted(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("out")
    config = RunConfig(out_dir=str(outdir), **FAST)
    report = run_sweep(config)
    manifest = emit_figure_tables(report, outdir)
    return outdir, report, manifest


class TestEmission:
    def test_all_files_present_and_hashed(self, emitted):
        outdir, _, manifest = emitted
        for name, digest in manifest["files"].items():
            path = outdir / name
            assert path.exists()
            assert len(digest) == 64
        assert (outdir / "manifest.json").exists()

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
            want = sum(p for n, p in res.photon_distribution if n <= 10)
            assert abs(total - want) < 1e-9

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

    def test_determinism(self, tmp_path):
        config = RunConfig(**FAST)
        dirs = []
        for name in ("a", "b"):
            sub = tmp_path / name
            report = run_sweep(config)
            emit_figure_tables(report, sub)
            dirs.append(sub)
        files_a = sorted(p.name for p in dirs[0].iterdir())
        files_b = sorted(p.name for p in dirs[1].iterdir())
        assert files_a == files_b
        for name in files_a:
            assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()


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

    def test_corrupt_cg_table_exit(self, tmp_path, capsys, corrupt_cg_tables):
        code = main(["run", "--alpha", "0", "--out", str(tmp_path), "--emit", "multipole_csv"])
        err = capsys.readouterr().err
        assert code == 2
        assert "numerical guard" in err and "not orthonormal" in err
        assert "Traceback" not in err

    def test_bad_alpha_list(self, tmp_path):
        assert main(["run", "--alpha", "0,banana", "--out", str(tmp_path)]) == 1

    def test_check_passes(self, capsys):
        assert main(["check"]) == 0
        out = capsys.readouterr().out
        assert "all" in out and "FAIL" not in out

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
        src = str(Path(stokes_manifolds.__file__).parents[1])
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": path}, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "exit codes 0 0", proc.stdout
        assert (out / "manifest.json").exists()


def _write(tmp_path, doc):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return str(path)
