"""JSON experiment configs: parsing, validation, the manifest's config block round trip."""

import json

import numpy as np
import pytest

from eigencollide.config import ExperimentConfig, config_to_dict, parse_config


def test_defaults():
    cfg = ExperimentConfig()
    assert cfg.beta == 1 and cfg.d == 2
    assert cfg.hurst == (0.3,)
    assert cfg.interval == (1.0, 2.0)
    assert cfg.shift is None
    assert cfg.extras == {}


def test_round_trip(tmp_path):
    cfg = ExperimentConfig(
        beta=2, d=3, hurst=(0.25,), interval=(0.5, 2.5), intervals=512,
        replicas=777, kappa=1.5, seed=99, mesh_ladder=(128, 256, 512),
    )
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config_to_dict(cfg)))
    assert parse_config(str(path)) == cfg


def test_round_trip_with_complex_shift(tmp_path):
    A = np.array([[1.0, 0.5 + 0.25j], [0.5 - 0.25j, -1.0]])
    cfg = ExperimentConfig(beta=2, d=2, shift=A)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config_to_dict(cfg)))
    back = parse_config(str(path))
    assert back == cfg
    np.testing.assert_array_equal(back.shift, A)


def test_parse_scalar_hurst(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"hurst": 0.25}))
    assert parse_config(str(path)).hurst == (0.25,)


def test_parse_rejects_unknown_keys(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"betaa": 1}))
    with pytest.raises(ValueError, match="c.json"):
        parse_config(str(path))


def test_parse_collects_experiment_sections(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"sweep": {"hurst_values": [0.2, 0.8]}, "gapfit": {"t0": 2.0}}))
    cfg = parse_config(str(path))
    assert cfg.extras["sweep"]["hurst_values"] == [0.2, 0.8]
    assert cfg.extras["gapfit"]["t0"] == 2.0


def test_parse_rejects_unknown_section_keys(tmp_path):
    # a misspelt key must not be dropped silently (gapfit would run its default size)
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"gapfit": {"sampels": 10}}))
    with pytest.raises(ValueError, match=r"c\.json.*section gapfit.*sampels"):
        parse_config(str(path))
    path.write_text(json.dumps({"sweep": [0.2, 0.8]}))
    with pytest.raises(ValueError, match=r"c\.json.*section sweep must be an object"):
        parse_config(str(path))


def test_parse_accepts_every_section_key_the_benchmark_writes(tmp_path, monkeypatch):
    # perfbench/workloads.py writes the configs of every workload at full and
    # at warm-up size; each must parse
    import importlib.util
    import sys
    from pathlib import Path

    source = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", source)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclass needs it
    spec.loader.exec_module(workloads)
    for name in workloads.WORKLOADS:
        workloads.round_ops(name, 1, 0, str(tmp_path / name), {})
        workloads.warmup_ops(name, 1, str(tmp_path / name))
    written = sorted(tmp_path.rglob("*.json"))
    sections = set()
    for path in written:
        sections |= set(parse_config(str(path)).extras)
    assert len(written) == 10
    assert sections == {"sweep", "gapfit", "capacity", "boxdim", "smalltime"}


def test_validation_errors():
    with pytest.raises(ValueError):
        ExperimentConfig(beta=3)
    with pytest.raises(ValueError):
        ExperimentConfig(hurst=(1.2,))
    with pytest.raises(ValueError):
        ExperimentConfig(interval=(2.0, 1.0))
    with pytest.raises(ValueError):
        ExperimentConfig(intervals=0)
    with pytest.raises(ValueError):
        ExperimentConfig(replicas=-1)
    with pytest.raises(ValueError):
        ExperimentConfig(kappa=0.0)
    with pytest.raises(ValueError):
        ExperimentConfig(mesh_ladder=(64, 48))  # must be increasing
    with pytest.raises(ValueError, match="mesh_ladder"):
        ExperimentConfig(mesh_ladder=(64, 64))  # duplicates
    with pytest.raises(ValueError, match="mesh_ladder"):
        ExperimentConfig(mesh_ladder=(48, 64))  # finest must be divisible
    with pytest.raises(ValueError):
        ExperimentConfig(shift=np.zeros((3, 3)))  # d = 2 by default
    ExperimentConfig(interval=(0.5, 2.0), intervals=64)  # off the mesh: a*N/(b-a) = 64/3
    with pytest.raises(ValueError, match="^interval: need 0 < a < b"):
        ExperimentConfig(interval=(0.0, 2.0), intervals=64)  # one window rule: a > 0


@pytest.mark.parametrize("field", ["d", "intervals", "replicas", "seed"])
def test_integer_fields_reject_fractions(field):
    # int() would truncate 2.7 to 2; integral floats such as 4.0 stay accepted
    with pytest.raises(ValueError, match=f"^{field}: must be an integer"):
        ExperimentConfig(**{field: 2.7})
    cfg = ExperimentConfig(**{field: 4.0})
    assert getattr(cfg, field) == 4 and type(getattr(cfg, field)) is int


def test_subnormal_hurst_rejected():
    # 1/5e-324 overflows, so Q is not finite and no regime can be read off
    with pytest.raises(ValueError, match="^hurst:.*not finite"):
        ExperimentConfig(hurst=(5e-324,))


def test_critical_hurst_warns():
    with pytest.warns(UserWarning):
        ExperimentConfig(beta=1, hurst=(0.5,))


def test_ladder_defaults_to_intervals():
    cfg = ExperimentConfig(intervals=512, mesh_ladder=None)
    assert tuple(cfg.ladder()) == (512,)
    cfg = ExperimentConfig(intervals=512, mesh_ladder=(128, 512))
    assert tuple(cfg.ladder()) == (128, 512)


@pytest.mark.parametrize(
    "intervals,ladder", [(1024, (64, 128)), (64, (64, 128)), (1024, (1024, 2048))]
)
def test_intervals_must_be_the_finest_mesh(intervals, ladder):
    # a run samples at the ladder's top, so intervals must name that mesh
    with pytest.raises(ValueError, match=f"^intervals: .*{ladder[-1]}, got {intervals}"):
        ExperimentConfig(intervals=intervals, mesh_ladder=ladder)


def test_replace_hurst_and_replicas():
    cfg = ExperimentConfig(hurst=(0.3,))
    c2 = cfg.replace(hurst=(0.7,))
    assert c2.hurst == (0.7,) and c2.seed == cfg.seed
    c3 = cfg.replace(replicas=5)
    assert c3.replicas == 5 and c3.hurst == cfg.hurst


def test_config_to_dict_json_safe():
    A = np.array([[0.0, 1j], [-1j, 0.0]])
    cfg = ExperimentConfig(beta=2, shift=A)
    d = config_to_dict(cfg)
    json.dumps(d)  # must not raise
    assert d["beta"] == 2


def test_equality_uses_shift_values():
    a = ExperimentConfig(shift=np.zeros((2, 2)))
    b = ExperimentConfig(shift=None)
    assert a == b  # zero shift and no shift are the same experiment
    c = ExperimentConfig(shift=np.eye(2))
    assert a != c
