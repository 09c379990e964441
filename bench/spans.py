"""Span tracer for the traced benchmark run, installed from outside ``brlab``.

``from .x import y`` copies a function into every module that imports it,
so wrapping ``x.y`` alone would miss the calls made through the copies.
:meth:`Tracer.install` therefore replaces every binding of every public
``brlab`` function, in every ``brlab`` module, with one shared wrapper that
records a span.  A few extra hooks cover measured work that is not a public
function: the slice-weight callables, the partition bump, witness
ratio evaluations, Gauss-rule construction in ``kernel``, numpy FFT calls,
sampled-field constructions and the files ``cli`` opens for writing.

Spans live in flat arrays (name, start, end, parent, run id) until the run
ends; a span's self time is its duration minus that of its child spans.
"""

from __future__ import annotations

import builtins
import csv
import gzip
import importlib
import os
import statistics
import time
import types
from array import array
from collections import Counter

import numpy as np

#: the package's modules, which are the benchmark's layers
LAYERS = ("grid", "bessel", "operators", "decomposition", "kernel", "norms", "regions", "cli")
_FFT_NAMES = ("fft", "ifft", "fftn", "ifftn", "rfft", "irfft", "rfftn", "irfftn", "fft2", "ifft2")
_MISSING = object()


class Tracer:
    """Records nested spans in one thread; off until :meth:`install`."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.run = array("i")
        self.start = array("q")
        self.end = array("q")
        self.stack = [-1]
        self.run_id = 0
        self.counters: Counter = Counter()
        self._undo: list[tuple[object, str, object]] = []
        self._pairs_cache: dict[tuple, int] = {}

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _enter(self, nid: int) -> int:
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self.stack[-1])
        self.run.append(self.run_id)
        self.end.append(0)
        self.stack.append(i)
        self.start.append(time.perf_counter_ns())
        return i

    def _exit(self, i: int) -> None:
        self.end[i] = time.perf_counter_ns()
        if self.stack[-1] == i:
            self.stack.pop()
        else:  # a file closed out of order; keep the stack consistent
            self.stack.remove(i)

    def span(self, name: str) -> "_Span":
        """Context manager recording one span named ``name``."""
        return _Span(self, self._intern(name))

    def wrap(self, name: str, fn, work=None, result=None):
        """``fn`` with a span around each call.

        ``work(args, kwargs, out)`` adds to counter ``name``; ``result(out)``
        replaces the return value (used to wrap returned callables).
        """
        nid = self._intern(name)
        enter, exit_, counters = self._enter, self._exit, self.counters

        def traced(*args, **kwargs):
            i = enter(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                exit_(i)
            if work is not None:
                counters[name] += work(args, kwargs, out)
            return out if result is None else result(out)

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr, _MISSING)))
        setattr(owner, attr, value)

    def _inball_pairs(self, args, kwargs, out) -> int:
        """P^2 for one pair apply, P = lattice points within its support radius."""
        grid = args[0].grid
        radius = args[3] if len(args) > 3 else kwargs.get("support_radius")
        key = (grid.n, grid.N, grid.L, radius)
        if key not in self._pairs_cache:
            if radius is None:
                count = grid.N**grid.n
            else:
                count = int(np.sum(grid.freq_radii() ** 2 <= float(radius) ** 2))
            self._pairs_cache[key] = count * count
        return self._pairs_cache[key]

    def install(self) -> None:
        modules = _modules()
        grid, bessel, operators, decomposition, kernel, norms, regions, cli = modules[1:]
        work = {
            "operators.bilinear_frequency_apply": self._inball_pairs,
            "bessel.bessel_j": lambda args, kwargs, out: int(np.size(args[1])),
            "grid.field_to_csv": lambda args, kwargs, out: os.path.getsize(args[1]),
        }
        returned = {
            "decomposition.slice_weight_of_square_sum": lambda w: self.wrap(
                "decomposition.weight", w
            ),
        }
        wrappers = {}
        for module in modules[1:]:
            layer = module.__name__.rsplit(".", 1)[-1]
            for attr, obj in vars(module).items():
                if _is_public_function(attr, obj) and obj.__module__ == module.__name__:
                    name = f"{layer}.{attr}"
                    wrappers[obj] = self.wrap(name, obj, work.get(name), returned.get(name))
        wrappers[norms._ratio] = self.wrap("norms.ratio", norms._ratio)
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if isinstance(obj, types.FunctionType) and obj in wrappers:
                    self._patch(module, attr, wrappers[obj])
        # Gauss rules are counted where the kernel builds them, by node count
        for attr in ("roots_jacobi", "roots_legendre"):
            rule = self.wrap("kernel.gauss_rule", getattr(kernel, attr), lambda a, k, o: a[0])
            self._patch(kernel, attr, rule)
        for attr in _FFT_NAMES:
            self._patch(np.fft, attr, self.wrap("grid.fft", getattr(np.fft, attr)))
        bump_call = decomposition.BumpFunction.__call__
        self._patch(decomposition.BumpFunction, "__call__", self.wrap("decomposition.bump", bump_call))
        self._patch(grid.SampledField, "__post_init__", self._counted_field(grid.SampledField.__post_init__))
        self._patch(cli, "open", self._traced_open)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def _counted_field(self, post_init):
        counters = self.counters

        def counted(field):
            post_init(field)
            counters["grid.field.allocs"] += 1
            counters["grid.field.bytes"] += field.values.size * 16

        return counted

    def _traced_open(self, file, mode="r", *args, **kwargs):
        handle = builtins.open(file, mode, *args, **kwargs)
        if not any(flag in mode for flag in "wax"):
            return handle
        return _TracedFile(self, handle, self._enter(self._intern("cli.io")))

    def unwrapped_bindings(self) -> list[str]:
        """Public ``brlab`` functions still bound somewhere without a wrapper."""
        missed = []
        for module in _modules():
            for attr, obj in vars(module).items():
                # a wrapper's __module__ is this file's, so only originals match
                if _is_public_function(attr, obj) and obj.__module__.rsplit(".", 1)[-1] in LAYERS:
                    missed.append(f"{module.__name__}.{attr}")
        return missed

    def write(self, path) -> None:
        """Write every span as gzipped CSV rows."""
        with gzip.open(path, "wt", newline="", compresslevel=1) as handle:
            writer = csv.writer(handle)
            writer.writerow(["span", "name", "start_ns", "end_ns", "parent", "run"])
            names = self.names
            for i, (nid, s, e, p, r) in enumerate(
                zip(self.name, self.start, self.end, self.parent, self.run)
            ):
                writer.writerow([i, names[nid], s, e, p, r])


class _Span:
    __slots__ = ("tracer", "nid", "i")

    def __init__(self, tracer: Tracer, nid: int):
        self.tracer, self.nid = tracer, nid

    def __enter__(self):
        self.i = self.tracer._enter(self.nid)

    def __exit__(self, *exc):
        self.tracer._exit(self.i)


class _TracedFile:
    """A file opened for writing; its span runs from open to close."""

    def __init__(self, tracer: Tracer, handle, index: int):
        self._tracer, self._handle, self._index = tracer, handle, index

    def __getattr__(self, attr):
        return getattr(self._handle, attr)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def close(self):
        if self._index is not None:
            self._handle.close()
            self._tracer._exit(self._index)
            self._index = None


def _modules() -> list:
    """The package itself, then its layer modules in LAYERS order."""
    return [importlib.import_module("brlab")] + [
        importlib.import_module(f"brlab.{layer}") for layer in LAYERS
    ]


def _is_public_function(attr: str, obj) -> bool:
    return (
        not attr.startswith("_")
        and isinstance(obj, types.FunctionType)
        and obj.__module__.startswith("brlab.")
    )


class SpanTable:
    """Per-name aggregates of a tracer's spans, normalized per traced pass."""

    def __init__(self, tracer: Tracer, passes: int):
        self.passes = passes
        self.ids = {name: i for i, name in enumerate(tracer.names)}
        self.layer_of = np.array([name.split(".", 1)[0] for name in tracer.names] or [""])
        self.name = np.frombuffer(tracer.name, dtype=np.int32)
        parent = np.frombuffer(tracer.parent, dtype=np.int32)
        self.dur = (
            np.frombuffer(tracer.end, dtype=np.int64) - np.frombuffer(tracer.start, dtype=np.int64)
        ) * 1e-9
        has_parent = parent >= 0
        child = np.bincount(
            parent[has_parent], weights=self.dur[has_parent], minlength=self.dur.size
        )
        self.self_time = self.dur - child
        self.parent_name = np.where(has_parent, self.name[np.maximum(parent, 0)], -1)
        self.counters = tracer.counters

    def _mask(self, names) -> np.ndarray:
        ids = [self.ids[n] for n in names if n in self.ids]
        return np.isin(self.name, ids)

    def calls(self, *names) -> float:
        return float(np.sum(self._mask(names))) / self.passes

    def seconds(self, *names) -> float:
        """Inclusive time of the named spans, not counting a named span twice
        when its direct parent is also named."""
        ids = [self.ids[n] for n in names if n in self.ids]
        top = self._mask(names) & ~np.isin(self.parent_name, ids)
        return float(np.sum(self.dur[top])) / self.passes

    def self_seconds(self, *names) -> float:
        return float(np.sum(self.self_time[self._mask(names)])) / self.passes

    def layer_self(self, layer: str) -> float:
        return float(np.sum(self.self_time[self.layer_of[self.name] == layer])) / self.passes

    def count(self, key: str) -> float:
        return float(self.counters.get(key, 0)) / self.passes


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return num / den * scale if den > 0 else 0.0


def layer_metrics(table: SpanTable, cli_entries, traced_walls, untraced_walls) -> dict:
    """Every per-layer metric, as {name: (value, unit)}, per traced pass.

    ``traced_walls`` and ``untraced_walls`` are the pass times of the two
    phases of one traced run.
    """
    t = table
    pair = "operators.bilinear_frequency_apply"
    pair_s = t.seconds(pair)
    ratio_s = t.seconds("norms.ratio")
    csv_writers = (
        "grid.field_to_csv",
        "decomposition.gamma_report_csv",
        "kernel.envelope_csv",
        "norms.decay_csv",
        "norms.scaling_csv",
        "norms.estimate_json",
    )
    m = {
        "operators.pair_apply.calls": (t.calls(pair), "count"),
        "operators.pair_apply.s": (pair_s, "s"),
        "operators.pair_apply.ms_per_call": (_ratio(pair_s, t.calls(pair), 1e3), "ms"),
        "operators.pair_apply.ns_per_inball_pair": (_ratio(pair_s, t.count(pair), 1e9), "ns"),
        "operators.radial.calls": (t.calls("operators.br_apply_radial"), "count"),
        "operators.radial.s": (t.seconds("operators.br_apply_radial"), "s"),
        "operators.kernel_path.s": (t.seconds("operators.br_apply_kernel"), "s"),
        "operators.band.calls": (t.calls("operators.band_operator"), "count"),
        "operators.band.s": (t.seconds("operators.band_operator"), "s"),
        "decomposition.weight.calls": (t.calls("decomposition.weight"), "count"),
        "decomposition.weight.s": (t.seconds("decomposition.weight"), "s"),
        "decomposition.bump.calls": (t.calls("decomposition.bump"), "count"),
        "decomposition.bump.s": (t.seconds("decomposition.bump"), "s"),
        "decomposition.separable.s": (t.seconds("decomposition.br_apply_separable"), "s"),
        "decomposition.gamma.s": (t.seconds("decomposition.gamma_decay_check"), "s"),
        "grid.dft.calls": (t.calls("grid.dft_forward", "grid.dft_inverse"), "count"),
        "grid.dft.s": (t.seconds("grid.dft_forward", "grid.dft_inverse"), "s"),
        "grid.lp_norm.calls": (t.calls("grid.lp_norm"), "count"),
        "grid.lp_norm.s": (t.seconds("grid.lp_norm"), "s"),
        "grid.field.allocs": (t.count("grid.field.allocs"), "count"),
        "grid.field.bytes": (t.count("grid.field.bytes"), "bytes"),
        "grid.fft.calls": (t.calls("grid.fft"), "count"),
        "grid.fft.s": (t.seconds("grid.fft"), "s"),
        "grid.csv.s": (t.seconds("grid.field_to_csv"), "s"),
        "grid.csv.bytes": (t.count("grid.field_to_csv"), "bytes"),
        "norms.ratio.calls": (t.calls("norms.ratio"), "count"),
        "norms.ratio.ms_per_call": (_ratio(ratio_s, t.calls("norms.ratio"), 1e3), "ms"),
        "norms.search.self_s": (t.self_seconds("norms.estimate_bilinear_norm"), "s"),
        "norms.catalog.s": (t.seconds("norms.witness_catalog"), "s"),
        "kernel.quadrature.calls": (t.calls("kernel.kernel_quadrature"), "count"),
        "kernel.quadrature.s": (t.seconds("kernel.kernel_quadrature"), "s"),
        "kernel.kj.calls": (t.calls("kernel.kj_kernel"), "count"),
        "kernel.kj.s": (t.seconds("kernel.kj_kernel"), "s"),
        "kernel.closed_form.s": (t.seconds("kernel.kernel_radial", "kernel.kernel_closed_form"), "s"),
        "kernel.gauss_rule.calls": (t.calls("kernel.gauss_rule"), "count"),
        "kernel.gauss_rule.s": (t.seconds("kernel.gauss_rule"), "s"),
        "kernel.gauss_rule.nodes": (t.count("kernel.gauss_rule"), "count"),
        "bessel.j.calls": (t.calls("bessel.bessel_j"), "count"),
        "bessel.j.s": (t.seconds("bessel.bessel_j"), "s"),
        "bessel.j.points": (t.count("bessel.bessel_j"), "count"),
        "bessel.sphere_ft.calls": (t.calls("bessel.sphere_ft"), "count"),
        "bessel.sphere_ft.s": (t.seconds("bessel.sphere_ft"), "s"),
        "bessel.oracle.s": (t.seconds("bessel.bessel_j_oracle"), "s"),
        "regions.index.calls": (t.calls("regions.smoothness_index"), "count"),
        "regions.index.s": (t.seconds("regions.smoothness_index"), "s"),
        "regions.export.s": (t.seconds("regions.region_grid_export"), "s"),
    }
    for entry in cli_entries:
        m[f"cli.{entry}.s"] = (t.seconds(f"cli.{entry}"), "s")
    m["cli.io.s"] = (t.seconds("cli.io", *csv_writers), "s")
    m["cli.io.bytes"] = (t.count("cli.io.bytes"), "bytes")
    m["cli.self_s"] = (t.layer_self("cli"), "s")
    layer_total = 0.0
    for layer in LAYERS:
        value = t.layer_self(layer)
        layer_total += value
        m[f"layer.{layer}.self_s"] = (value, "s")
    overhead = _ratio(statistics.median(traced_walls), statistics.median(untraced_walls)) - 1.0
    m["trace.overhead_frac"] = (overhead, "ratio")
    m["trace.coverage_frac"] = (_ratio(layer_total, statistics.fmean(traced_walls)), "ratio")
    return m
