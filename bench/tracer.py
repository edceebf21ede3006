"""Spans and counts recorded around the package's public functions, from outside.

`Tracer.install` replaces each traced function in every loaded
`stokes_manifolds` module that binds it.  That covers the names `pipeline` and
`cli` import and the calls modules make to each other: `multipole_weights` ->
`multipoles_algebraic`, `_tensor_basis` -> `clebsch_gordan`, and
`husimi_total` / `render_foliation` -> `husimi_manifold`.  Nothing under
`src/` changes, and `uninstall` puts the originals back.  A function the
program no longer has is simply not wrapped, and its counts read 0.

Spans live in memory as `[op, name, layer, start, end, parent]` and are
written once, by `export`, when the traced process ends.  `summarize` turns
them into per-operation metrics; a span's self time is its duration minus the
durations of its direct children, so the self times of one operation sum to
the duration of its root span.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import resource
import sys
import time
import warnings

ROOT = "op"

# traced function -> layer
SPANNED = {
    "synthesize_mode": "fock",
    "tensor_product": "fock",
    "parse_manifolds": "polar",
    "dump_sector": "polar",
    "manifold_stokes_summary": "stokes",
    "total_stokes_summary": "stokes",
    "multipoles_algebraic": "multipole",
    "multipole_weights": "multipole",
    "build_quadrature_grid": "sphere",
    "husimi_total": "sphere",
    "husimi_manifold": "sphere",
    "render_heatmap": "render",
    "render_foliation": "render",
    "write_ppm": "render",
    "run_sweep": "pipeline",
    "emit_figure_tables": "pipeline",
    "parse_config": "cli",
}
# A cold default run makes about 1e5 of these calls, so they are counted and
# their time stays with the caller (multipoles_algebraic, via _tensor_basis).
COUNTED = {"clebsch_gordan": "multipole"}

LAYERS = ("fock", "polar", "stokes", "multipole", "sphere", "render", "pipeline", "cli")

# counts taken by _observe, reported as 0 when an operation never takes them
COUNTS = (
    "fock.tensor_product.bytes",
    "polar.blocks_reported",
    "polar.dump_sector.bytes",
    "multipole.clebsch_gordan.calls",
    "multipole.distinct_spins",
    "multipole.peak_alloc_mb",
    "sphere.grid_nodes",
    "render.write_ppm.bytes",
    "pipeline.files_written",
    "pipeline.bytes_written",
)


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _digest(array) -> str:
    return hashlib.blake2b(array.tobytes(), digest_size=16).hexdigest()


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, dict] = {}
        self._stack: list[int] = []
        self._op: str | None = None
        self._s_max: float | None = None
        self._patched: list[tuple] = []

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if n == "stokes_manifolds" or n.startswith("stokes_manifolds.")]
        wrappers = {}
        for module in modules:
            for name in (*SPANNED, *COUNTED):
                fn = getattr(module, name, None)
                if fn is None or getattr(fn, "__name__", None) != name:
                    continue
                if id(fn) not in wrappers:
                    wrappers[id(fn)] = (self._counted(fn, name) if name in COUNTED
                                        else self._spanned(fn, name, SPANNED[name]))
                self._patched.append((module, name, fn))
                setattr(module, name, wrappers[id(fn)])

    def uninstall(self) -> None:
        for module, name, fn in reversed(self._patched):
            setattr(module, name, fn)
        self._patched.clear()

    # -- recording ------------------------------------------------------------

    @contextlib.contextmanager
    def operation(self, op: str):
        """Root span of one operation; warnings inside it are counted per layer."""
        self._op = op
        self.counts[op] = {}
        index = len(self.spans)
        span = [op, ROOT, ROOT, time.perf_counter(), None, -1]
        self.spans.append(span)
        self._stack = [index]
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("always")
                warnings.showwarning = self._on_warning
                yield
        finally:
            span[4] = time.perf_counter()
            self._op = None
            self._stack = []

    def _bump(self, key: str, amount=1) -> None:
        counts = self.counts[self._op]
        counts[key] = counts.get(key, 0) + amount

    def _on_warning(self, message, category, filename, lineno, file=None, line=None):
        self._bump(f"{self.spans[self._stack[-1]][2]}.warnings")

    def _counted(self, fn, name):
        key = f"{COUNTED[name]}.{name}.calls"

        def wrapper(*args, **kwargs):
            if self._op is not None:
                self._bump(key)
            return fn(*args, **kwargs)

        wrapper.__name__ = name
        wrapper.__wrapped__ = fn
        return wrapper

    def _spanned(self, fn, name, layer):
        def wrapper(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            index = len(self.spans)
            span = [self._op, name, layer, 0.0, None, self._stack[-1]]
            self.spans.append(span)
            self._stack.append(index)
            rss_before = _maxrss_mb() if name == "multipoles_algebraic" else 0.0
            span[3] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                self._stack.pop()
            self._observe(name, args, result, rss_before)
            return result

        wrapper.__name__ = name
        wrapper.__wrapped__ = fn
        return wrapper

    def _observe(self, name, args, result, rss_before) -> None:
        """Counts taken at the boundary where the work happens, under the
        names of the benchmark's per-layer metrics."""
        counts = self.counts[self._op]
        if name == "parse_config":
            self._s_max = result.resolved_s_report_max
        elif name == "tensor_product":
            self._bump("fock.tensor_product.bytes", result.entries.nbytes)
        elif name == "parse_manifolds":
            self._bump("polar.blocks_reported", len(result.reported(self._s_max)))
        elif name in ("dump_sector", "write_ppm"):
            self._bump(f"{SPANNED[name]}.{name}.bytes", os.path.getsize(args[1]))
        elif name == "multipoles_algebraic":
            block = args[0]
            counts.setdefault("multipole.blocks", set()).add(
                (block.photon_number, _digest(block.block)))
            self._bump("multipole.peak_alloc_mb", _maxrss_mb() - rss_before)
        elif name == "husimi_manifold":
            block, grid = args[0], args[1]
            counts.setdefault("sphere.blocks", set()).add(
                (block.photon_number, _digest(block.block), grid.exactness))
        elif name == "build_quadrature_grid":
            counts["sphere.grid_nodes"] = max(counts.get("sphere.grid_nodes", 0),
                                              result.n_theta * result.n_phi)
        elif name == "emit_figure_tables":
            names = [*result["files"], "manifest.json"]
            self._bump("pipeline.files_written", len(names))
            self._bump("pipeline.bytes_written",
                       sum(os.path.getsize(os.path.join(args[1], n)) for n in names))

    def export(self) -> dict:
        counts = {}
        for op, c in self.counts.items():
            c = dict(c)
            blocks = c.pop("multipole.blocks", set())
            c["multipole.distinct_blocks"] = len(blocks)
            c["multipole.distinct_spins"] = len({n for n, _ in blocks})
            c["sphere.distinct_blocks"] = len(c.pop("sphere.blocks", set()))
            counts[op] = c
        return {"spans": self.spans, "counts": counts}


# -- analysis (runs in the benchmark's parent process) ---------------------------


def summarize(trace: dict, op: str) -> dict:
    """Metrics of one traced operation: per-function calls and self time,
    per-layer self time, and the counts taken at the boundaries."""
    spans = [(i, s) for i, s in enumerate(trace["spans"]) if s[0] == op]
    if not spans:
        raise ValueError(f"no spans recorded for operation {op!r}")
    child_time = {}
    for _, s in spans:
        if s[5] >= 0:
            child_time[s[5]] = child_time.get(s[5], 0.0) + (s[4] - s[3])
    calls: dict[str, int] = {}
    fn_self: dict[str, float] = {}
    layer_self = {layer: 0.0 for layer in LAYERS}
    root_self = root_wall = 0.0
    for i, s in spans:
        own = (s[4] - s[3]) - child_time.get(i, 0.0)
        if s[1] == ROOT:
            root_self, root_wall = own, s[4] - s[3]
            continue
        calls[s[1]] = calls.get(s[1], 0) + 1
        fn_self[s[1]] = fn_self.get(s[1], 0.0) + own
        layer_self[s[2]] += own
    counts = trace["counts"].get(op, {})
    return {
        "calls": calls,
        "self_s": fn_self,
        "layer_self_s": layer_self,
        "unattributed_s": root_self,
        "op_wall_s": root_wall,
        "attributed_s": sum(layer_self.values()),
        "counts": counts,
    }
