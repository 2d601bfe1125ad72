"""The benchmark's traced run patches eigencollide attributes by name.

perfbench/tracing.py replaces named module attributes with timing wrappers
and restores them afterwards, and perfbench/make_reference.py calls the
studies with their arguments in order. A refactor that renames or drops one
of those names, or reorders those arguments, must fail here rather than in
the benchmark.
"""

import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from eigencollide import capacity, cli, config, experiments
from eigencollide.config import ExperimentConfig
from eigencollide.ensembles import n_beta

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
MAKE_REFERENCE = TRACING.with_name("make_reference.py")


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("d", [2, 3, 4])
def test_tracing_patch_points_exist_and_are_restored(d):
    tracing = _load_tracing()
    modules = (capacity, cli, config, experiments)
    before = [dict(vars(m)) for m in modules]
    dispatch = dict(cli._DISPATCH)
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        assert experiments._gaps_from_fields is not before[-1]["_gaps_from_fields"]
        cfg = ExperimentConfig(d=d, intervals=16, mesh_ladder=(8, 16), replicas=2)
        experiments.refinement_study(cfg)
    for module, saved in zip(modules, before):
        for name, value in saved.items():
            assert getattr(module, name) is value, f"{module.__name__}.{name} not restored"
    assert cli._DISPATCH == dispatch
    names = {span[1] for span in tracer.spans}
    assert {"experiments.field_batch", "fields.fgn_from_normals"} <= names
    if d >= 3:
        assert "experiments.gap_kernel" in names
    if d == 2:
        # the ladder reads the gap from the paths (_path_gaps): no packed
        # coefficients, no closed form on them, no 2x2 matrices
        assert "spectral.gap_closed_form_2x2" not in names
        assert "ensembles.vec_to_matrix" not in names
    else:
        # the 3x3 closed form and the d >= 4 QR kernel read the packed
        # coefficients: no matrices, no eigensolver spectrum
        assert "ensembles.vec_to_matrix" not in names
        assert "spectral.adjacent_gaps" not in names


class _CountingBitGenerator:
    """Delegates to a bit generator, adding the words random_raw returns to words[0]."""

    def __init__(self, bit_generator, words):
        self._bit_generator = bit_generator
        self._words = words

    def random_raw(self, size=None):
        out = self._bit_generator.random_raw(size)
        self._words[0] += np.size(out)
        return out

    def __getattr__(self, name):
        return getattr(self._bit_generator, name)


class _CountingGenerator:
    """A Generator whose bit_generator counts the raw words drawn from it."""

    def __init__(self, rng, words):
        self._rng = rng
        self.bit_generator = _CountingBitGenerator(rng.bit_generator, words)

    def __getattr__(self, name):
        return getattr(self._rng, name)


@pytest.fixture
def raw_words(monkeypatch):
    """Raw words the sampler draws through experiments.substream, as words[0].

    The tracer counts Generator.standard_normal only, which the window
    sampler calls for the anchors; the increments' normals come from raw
    words (streams._polar_normals).
    """
    words = [0]
    orig = experiments.substream
    monkeypatch.setattr(
        experiments, "substream", lambda *key: _CountingGenerator(orig(*key), words)
    )
    return words


@pytest.mark.parametrize("beta", [1, 2])
def test_traced_normals_count_is_the_sampler_work(beta, raw_words):
    # n_beta - 1 paths per replica (no trace field); each path draws L raw
    # words, one per pair of the 2L normals for the N window increments
    # (L = N, a power of two), and one standard normal for its value at the
    # window's start, nothing for the part before it. The tracer's
    # normals count sees the standard normals, the anchors
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    replicas, N = 3, 16
    cfg = ExperimentConfig(beta=beta, d=2, intervals=N, mesh_ladder=(8, N), replicas=replicas)
    with tracing.installed(tracer):
        experiments.refinement_study(cfg)
    metrics = tracing.layer_metrics(tracer.spans, tracer.counts)
    L = N
    paths = replicas * (n_beta(beta, 2) - 1)
    assert metrics["streams.normals.count"] == paths
    assert raw_words[0] == paths * L
    assert metrics["fields.embedding_fallbacks"] == 0


@pytest.mark.parametrize("beta", [1, 2])
def test_traced_sweep_draws_each_replica_once(beta, raw_words):
    # a two-H sweep maps each replica's normals through both H: one
    # substream and one set of draws per replica, not one per (H, replica)
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    replicas, N = 3, 16
    hs = (0.3, 0.7) if beta == 1 else (0.25, 0.45)
    cfg = ExperimentConfig(beta=beta, d=2, intervals=N, mesh_ladder=(8, N), replicas=replicas)
    with tracing.installed(tracer):
        experiments.phase_sweep(hs, cfg)
    metrics = tracing.layer_metrics(tracer.spans, tracer.counts)
    L = N
    paths = replicas * (n_beta(beta, 2) - 1)
    assert metrics["streams.normals.count"] == paths
    assert raw_words[0] == paths * L
    assert metrics["streams.substream.calls"] == replicas
    assert metrics["fields.fgn_from_normals.calls"] == len(hs) * (n_beta(beta, 2) - 1)


def test_traced_capacity_and_boxdim_draw_the_degenerate_set_once_per_bound(tmp_path):
    # a capacity run computes two bounds (alpha and divergent_alpha) from
    # the same 2 * pairs degenerate points, drawn in one sample_degenerate call
    tracing = _load_tracing()
    modules = (capacity, cli, config, experiments)
    before = [dict(vars(m)) for m in modules]
    cfg = {
        "d": 3,
        "seed": 5,
        "capacity": {"pairs": 20, "oracle_pairs": 100},
        "boxdim": {"points": 1000, "nscales": 4},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    calls = {}
    for sub in ("capacity", "boxdim"):
        tracer = tracing.Tracer()
        with tracing.installed(tracer):
            assert cli.main([sub, "--config", str(path), "--out", str(tmp_path / sub)]) == 0
        calls[sub] = tracing.layer_metrics(tracer.spans, tracer.counts)[
            "geometry.sample_degenerate.calls"
        ]
        assert "geometry.sample_degenerate" in {span[1] for span in tracer.spans}
    for module, saved in zip(modules, before):
        for name, value in saved.items():
            assert getattr(module, name) is value, f"{module.__name__}.{name} not restored"
    assert calls == {"capacity": 1, "boxdim": 1}


def test_make_reference_records_every_count(tmp_path, monkeypatch):
    # the recorder at 8 replicas, writing to tmp_path: it passes wl.LADDER as
    # refinement_study's mesh_ladder and calls small_time_study positionally
    workloads = MAKE_REFERENCE.with_name("workloads.py")
    spec = importlib.util.spec_from_file_location("workloads", workloads)
    wl = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "workloads", wl)  # the recorder imports it by this name
    spec.loader.exec_module(wl)
    monkeypatch.setattr(wl, "REFERENCE_PATH", tmp_path / "reference.json")
    monkeypatch.setattr(sys, "path", list(sys.path))  # the recorder prepends perfbench/
    spec = importlib.util.spec_from_file_location("perfbench_make_reference", MAKE_REFERENCE)
    recorder = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(recorder)
    assert recorder.wl is wl
    monkeypatch.setattr(recorder, "REFERENCE_REPLICAS", 8)
    committed = MAKE_REFERENCE.with_name("reference.json").read_bytes()
    assert recorder.main() == 0
    assert MAKE_REFERENCE.with_name("reference.json").read_bytes() == committed
    reference = json.loads((tmp_path / "reference.json").read_text())
    collide = reference["collide-d2"]["hits"]
    assert len(collide) == 4 and all(len(hits) == len(wl.LADDER) == 7 for hits in collide.values())
    assert len(reference["smalltime-d4"]["hits"]) == len(wl.SMALLTIME["T_values"]) == 4
