"""In-memory span tracer for the benchmark's traced run.

Spans come only from this file: while tracing is installed, module
attributes of eigencollide are replaced, in the module that looks them up,
by wrappers that record a span (name, start, end, parent, op id) and update
counters, then call the original. Spans are kept in memory and written out
when the run ends. A span's self time is its duration minus the part of it
covered by its child spans; busy time is summed over threads.

Span names are "<layer>.<what>", the layer being the eigencollide module
that does the work.
"""

from __future__ import annotations

import contextlib
import itertools
import os
import threading
import time
from collections import defaultdict

LAYERS = (
    "streams", "fields", "ensembles", "spectral", "geometry",
    "capacity", "experiments", "config", "cli",
)
OP_SPAN = "op"


class Tracer:
    def __init__(self):
        self.spans = []  # (id, name, start, end, parent id, op id)
        self.counts = defaultdict(float)
        self.op = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self, parent=None) -> tuple:
        stack = self._stack()
        sid = next(self._ids)
        if parent is None and stack:
            parent = stack[-1]
        stack.append(sid)
        return sid, parent, time.perf_counter()

    def _exit(self, name: str, entered: tuple) -> None:
        end = time.perf_counter()
        sid, parent, start = entered
        self._local.stack.pop()
        self.spans.append((sid, name, start, end, parent, self.op))

    @contextlib.contextmanager
    def span(self, name: str, parent=None):
        entered = self._enter(parent)
        try:
            yield entered[0]
        finally:
            self._exit(name, entered)

    def add(self, key: str, amount: float) -> None:
        with self._lock:
            self.counts[key] += amount

    def wrap(self, fn, name: str, count=None):
        def traced(*args, **kwargs):
            entered = self._enter()
            try:
                out = fn(*args, **kwargs)
            finally:
                self._exit(name, entered)
            if count is not None:
                count(self, args, kwargs, out)
            return out

        return traced


class _TracedGenerator:
    """Delegates to a numpy Generator, timing and counting normal draws."""

    def __init__(self, tracer: Tracer, rng):
        self._rng = rng
        self.standard_normal = tracer.wrap(rng.standard_normal, "streams.normals", _count_normals)

    def __getattr__(self, name):
        return getattr(self._rng, name)


# -- counters -------------------------------------------------------------------


def _count_normals(tr, args, kwargs, out):
    tr.add("streams.normals.count", getattr(out, "size", 1))


def _count_kept(tr, args, kwargs, out):
    tr.add("fields.points_kept", out.size)


def _count_fft(tr, args, kwargs, out):
    rows, length = args[0].reshape(-1, args[0].shape[-1]).shape
    tr.add("fields.fft_points", rows * length)
    tr.add("fields.increments", out.size)


def _count_exact(tr, args, kwargs, out):
    tr.add("fields.increments", out.size)


def _count_fallback(tr, args, kwargs, out):
    if out is None:
        tr.add("fields.embedding_fallbacks", 1)


def _count_matrices(tr, args, kwargs, out):
    tr.add("ensembles.matrices", out.size // (out.shape[-1] * out.shape[-2]))


def _count_pairs(tr, args, kwargs, out):
    tr.add("capacity.pairs", out.pairs)


def _count_bytes(tr, args, kwargs, out):
    tr.add("cli.results_bytes", os.path.getsize(out))


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Patch the wrappers into eigencollide's modules; restore them on exit."""
    from eigencollide import capacity, cli, config, experiments

    table = [
        (cli, "parse_config", "config.parse_config", None),
        (config, "parse_config", "config.parse_config", None),
        (cli, "phase_sweep", "experiments.phase_sweep", None),
        (cli, "gap_exponent_fit", "experiments.gap_exponent_fit", None),
        (cli, "flattened_degenerate_sampler", "experiments.flattened_degenerate_sampler", None),
        (cli, "degenerate_point_cloud", "experiments.degenerate_point_cloud", None),
        (cli, "energy_integral", "capacity.energy_integral", _count_pairs),
        (cli, "capacity_lower_bound", "capacity.capacity_lower_bound", None),
        (cli, "box_counting_dim", "capacity.box_counting_dim", None),
        (cli, "_write_results", "cli.write_results", _count_bytes),
        (cli, "_write_manifest", "cli.write_manifest", None),
        (capacity, "energy_integral", "capacity.energy_integral", _count_pairs),
        (experiments, "small_time_study", "experiments.small_time_study", None),
        (experiments, "refinement_study", "experiments.refinement_study", None),
        (experiments, "_min_gaps_ladder", "experiments.ladder", None),
        (experiments, "_field_path_batch", "experiments.field_batch", _count_kept),
        (experiments, "_gaps_from_fields", "experiments.gap_kernel", None),
        (experiments, "fgn_sqrt_eigenvalues", "fields.sqrt_eig", _count_fallback),
        (experiments, "fgn_from_normals", "fields.fgn_from_normals", _count_fft),
        (experiments, "_fgn_exact", "fields.fgn_exact", _count_exact),
        (experiments, "validate_shift", "ensembles.validate_shift", None),
        (experiments, "vec_to_matrix", "ensembles.vec_to_matrix", _count_matrices),
        (experiments, "matrix_to_vec", "ensembles.matrix_to_vec", None),
        (experiments, "adjacent_gaps", "spectral.adjacent_gaps", None),
        (experiments, "gap_closed_form_2x2", "spectral.gap_closed_form_2x2", None),
        (experiments, "sample_degenerate", "geometry.sample_degenerate", None),
    ]
    saved = []
    for module, attr, name, count in table:
        saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, tracer.wrap(getattr(module, attr), name, count))
    for module in (experiments, capacity):
        orig = module.substream
        saved.append((module, "substream", orig))
        setattr(module, "substream", _traced_substream(tracer, orig))
    saved.append((experiments, "_run_batches", experiments._run_batches))
    experiments._run_batches = _traced_run_batches(tracer, experiments._run_batches)
    dispatch = dict(cli._DISPATCH)
    for sub, fn in dispatch.items():
        cli._DISPATCH[sub] = tracer.wrap(fn, f"cli.{sub}")
    try:
        yield tracer
    finally:
        cli._DISPATCH.update(dispatch)
        for module, attr, orig in reversed(saved):
            setattr(module, attr, orig)


def _traced_substream(tracer: Tracer, orig):
    traced = tracer.wrap(orig, "streams.substream")

    def substream(*args, **kwargs):
        return _TracedGenerator(tracer, traced(*args, **kwargs))

    return substream


def _traced_run_batches(tracer: Tracer, orig):
    """Batches run in pool threads: parent them to the run_batches span."""

    def run_batches(replicas, threads, work):
        with tracer.span("experiments.run_batches") as parent:

            def traced_work(lo, hi):
                with tracer.span("experiments.batch", parent=parent):
                    return work(lo, hi)

            start = time.perf_counter()
            out = orig(replicas, threads, traced_work)
            tracer.add("experiments.thread_s", max(1, threads) * (time.perf_counter() - start))
        return out

    return run_batches


# -- analysis -------------------------------------------------------------------


def _union_length(intervals: list) -> float:
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list) -> dict:
    """span id -> duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for s in spans:
        if s[4] is not None:
            children[s[4]].append(s)
    out = {}
    for sid, _, start, end, _, _ in spans:
        covered = [
            (max(c[2], start), min(c[3], end)) for c in children[sid] if c[3] > start and c[2] < end
        ]
        out[sid] = (end - start) - _union_length(covered)
    return out


def layer_metrics(spans: list, counts: dict) -> dict:
    """Per-layer metrics of the traced run, keyed as in BENCHMARK.json."""
    selfs = self_times(spans)
    by_id = {s[0]: s for s in spans}
    busy, calls, self_by_name = defaultdict(float), defaultdict(int), defaultdict(float)
    for s in spans:
        busy[s[1]] += s[3] - s[2]
        calls[s[1]] += 1
        self_by_name[s[1]] += selfs[s[0]]

    def under_ladder(s) -> bool:
        while s[4] is not None:
            s = by_id[s[4]]
            if s[1] == "experiments.ladder":
                return True
        return False

    ladder_self = self_by_name["experiments.ladder"] + sum(
        selfs[s[0]] for s in spans if s[1] == "experiments.batch" and under_ladder(s)
    )
    increments = counts.get("fields.increments", 0)
    thread_s = counts.get("experiments.thread_s", 0)
    m = {
        "streams.substream.calls": calls["streams.substream"],
        "streams.substream.busy_s": busy["streams.substream"],
        "streams.normals.count": int(counts.get("streams.normals.count", 0)),
        "streams.normals.busy_s": busy["streams.normals"],
        "fields.fgn_from_normals.calls": calls["fields.fgn_from_normals"],
        "fields.fgn_from_normals.busy_s": busy["fields.fgn_from_normals"],
        "fields.fft_points": int(counts.get("fields.fft_points", 0)),
        "fields.window_use_ratio": counts.get("fields.points_kept", 0) / increments if increments else 0.0,
        "fields.sqrt_eig.busy_s": busy["fields.sqrt_eig"],
        "fields.embedding_fallbacks": int(counts.get("fields.embedding_fallbacks", 0)),
        "experiments.field_batch.self_s": self_by_name["experiments.field_batch"],
        "experiments.gap_kernel.self_s": self_by_name["experiments.gap_kernel"],
        "experiments.ladder.self_s": ladder_self,
        "experiments.batches": calls["experiments.batch"],
        "experiments.parallel_eff": busy["experiments.batch"] / thread_s if thread_s else 0.0,
        "ensembles.vec_to_matrix.busy_s": busy["ensembles.vec_to_matrix"],
        "ensembles.matrices": int(counts.get("ensembles.matrices", 0)),
        "spectral.adjacent_gaps.busy_s": busy["spectral.adjacent_gaps"],
        "spectral.gap_closed_form_2x2.busy_s": busy["spectral.gap_closed_form_2x2"],
        "geometry.sample_degenerate.calls": calls["geometry.sample_degenerate"],
        "geometry.sample_degenerate.busy_s": busy["geometry.sample_degenerate"],
        "capacity.energy_integral.busy_s": busy["capacity.energy_integral"],
        "capacity.pairs": int(counts.get("capacity.pairs", 0)),
        "capacity.box_counting_dim.busy_s": busy["capacity.box_counting_dim"],
        "config.parse_config.busy_s": busy["config.parse_config"],
        "cli.write_results.busy_s": busy["cli.write_results"],
        "cli.results_bytes": int(counts.get("cli.results_bytes", 0)),
    }
    layer_self = defaultdict(float)
    for name, t in self_by_name.items():
        layer_self[name.split(".")[0]] += t
    total = sum(layer_self.values())
    for layer in LAYERS:
        m[f"layer.{layer}.self_s"] = layer_self[layer]
        m[f"layer.{layer}.share"] = layer_self[layer] / total if total else 0.0
    ops = [s for s in spans if s[1] == OP_SPAN]
    m["trace.coverage_min"] = min(1.0 - selfs[s[0]] / (s[3] - s[2]) for s in ops) if ops else 0.0
    m["trace.spans"] = len(spans)
    return m
