"""JSON experiment configs: parsing, validation, the manifest's config block round trip."""

import json
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from eigencollide.config import ExperimentConfig, config_to_dict, parse_config
from eigencollide.experiments import phase_sweep, refinement_study


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


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"beta": 1,', "invalid JSON ("),
        ("[1, 2]", "top level must be an object"),
        ('{"beta": 2, "shift": {"real": [[1, 0], [0, 1]], "imga": [[0, 1], [-1, 0]]}}',
         "shift: unknown keys ['imga']"),
    ],
)
def test_parse_rejects_malformed_files(tmp_path, text, message):
    # each error names the file; a misspelt shift part is not read as zero
    path = tmp_path / "c.json"
    path.write_text(text)
    with pytest.raises(ValueError, match="^" + re.escape(f"config {path}: {message}")):
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


@pytest.mark.parametrize(
    "extras, message",
    [
        ({"bogus": 3}, "unknown keys ['bogus']"),
        ({"sweep": [0.2, 0.8]}, "section sweep must be an object"),
        ({"gapfit": {"sampels": 10}}, "section gapfit: unknown keys ['sampels']"),
        ({"gapfit": {"window": [0.5]}}, "gapfit.window: must be 2 numbers, got [0.5]"),
        ({"gapfit": {"t0": True}}, "gapfit.t0: must be a finite number, got True"),
        ({"capacity": {"alpha": float("inf")}}, "capacity.alpha: must be a finite number, got inf"),
        ({"gapfit": {"t0": 10**400}}, f"gapfit.t0: must be a finite number, got {10**400}"),
        ({"boxdim": {"nscales": True}}, "boxdim.nscales: must be an integer, got True"),
        ({"smalltime": {"T_values": [1.0, "0.5"]}},
         "smalltime.T_values: must be a finite number, got '0.5'"),
    ],
)
def test_sections_are_checked_when_built(tmp_path, extras, message):
    # a config built in Python gets the parser's message, without the path
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        ExperimentConfig(extras=extras)
    path = tmp_path / "c.json"
    path.write_text(json.dumps(extras))
    with pytest.raises(ValueError, match="^" + re.escape(f"config {path}: {message}") + "$"):
        parse_config(str(path))


def test_section_reads_values_over_defaults():
    written = {"gapfit": {"samples": 20000.0, "window": [1, 2]}}
    cfg = ExperimentConfig(beta=2, d=3, extras=written)
    assert cfg.section("gapfit") == {"t0": 1.0, "samples": 20000, "window": (1.0, 2.0)}
    assert type(cfg.section("gapfit")["samples"]) is int
    assert cfg.section("capacity")["divergent_alpha"] == 6.5  # dim F + 0.5, dim F = 6
    assert cfg.section("sweep") == {"hurst_values": None}
    assert cfg.extras == written  # as written; the manifest records this


def test_readme_config_example_shows_the_defaults(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("### Config file", 1)[1].split("```json\n", 1)[1].split("```", 1)[0]
    path = tmp_path / "readme.json"
    path.write_text(block)
    cfg = parse_config(str(path))
    defaults = ExperimentConfig(beta=cfg.beta, d=cfg.d)
    assert cfg.extras
    for name in cfg.extras:
        for key, value in cfg.section(name).items():
            if defaults.section(name)[key] is not None:
                assert value == defaults.section(name)[key], f"{name}.{key}"


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
    with pytest.raises(ValueError, match="^mesh_ladder: must be an integer, got 64.5"):
        ExperimentConfig(intervals=128, mesh_ladder=(64.5, 128))  # int() would run 64
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


def test_seed_must_be_nonnegative():
    # numpy's generators reject a negative seed only when the run samples,
    # with an error that does not name the field
    with pytest.raises(ValueError, match="^seed: must be a nonnegative integer, got -5"):
        ExperimentConfig(seed=-5)
    assert ExperimentConfig(seed=0).seed == 0


@pytest.mark.parametrize(
    "field, value",
    [
        ("kappa", "1.5"),
        ("kappa", float("inf")),
        ("kappa", float("nan")),
        ("kappa", 10**400),  # float() would overflow
        ("kappa", None),
        ("kappa", True),
        ("interval", ("1", "2")),
        ("interval", (1.0, None)),
        ("interval", (1.0, 2.0, 3.0)),
        ("interval", 1.5),
        ("hurst", "0.25"),
        ("hurst", ("0.25",)),
        ("hurst", (True,)),
        ("hurst", None),
        ("beta", True),  # would pass as 1
        ("beta", "1"),
    ],
)
def test_core_number_fields_reject_non_numbers(field, value):
    # the core numbers follow the sections' rule: finite, not a string,
    # bool or null, and within a float's range; no float() coercion
    with pytest.raises(ValueError, match=f"^{field}: must be"):
        ExperimentConfig(**{field: value})


def test_core_number_fields_accept_numbers():
    cfg = ExperimentConfig(
        beta=2.0, hurst=np.float64(0.25), interval=[np.float64(0.5), np.int64(2)], kappa=3
    )
    assert (cfg.beta, cfg.hurst, cfg.interval, cfg.kappa) == (2, (0.25,), (0.5, 2.0), 3.0)
    assert type(cfg.beta) is int and type(cfg.kappa) is float
    assert ExperimentConfig(hurst=np.array([0.3, 0.4])).hurst == (0.3, 0.4)


@pytest.mark.parametrize(
    "beta, shift",
    [
        (1, [["1.5", "0"], ["0", "1.5"]]),  # asarray(dtype=float) would read 1.5
        (1, [[True, False], [False, True]]),
        (1, np.eye(2, dtype=bool)),
        (1, [[1.5, True], [True, 1.5]]),  # asarray would upcast True to 1.0
        (1, [[None, 0.0], [0.0, 0.0]]),
        (1, [[float("nan"), 0.0], [0.0, 0.0]]),
        (1, [[float("inf"), 0.0], [0.0, 0.0]]),
        (2, [[0.0, complex(0.0, float("inf"))], [complex(0.0, float("-inf")), 0.0]]),
    ],
)
def test_shift_entries_must_be_numbers(beta, shift):
    with pytest.raises(ValueError, match="^shift: must be a finite number"):
        ExperimentConfig(beta=beta, shift=shift)


def test_shift_entries_accept_numbers():
    A = ExperimentConfig(shift=[[1, 0.5], [np.float64(0.5), np.int64(-1)]]).shift
    np.testing.assert_array_equal(A, [[1.0, 0.5], [0.5, -1.0]])
    B = np.array([[1.0, 1j], [-1j, 0.0]])
    np.testing.assert_array_equal(ExperimentConfig(beta=2, shift=B).shift, B)


@pytest.mark.parametrize(
    "shift",
    [
        [["1.5", "0"], ["0", "1.5"]],
        [[True, False], [False, True]],
        {"real": [[0, "1"], ["1", 0]]},
        {"real": [[0, 0], [0, 0]], "imag": [[0, None], [None, 0]]},
    ],
)
def test_parsed_shift_entries_must_be_numbers(tmp_path, shift):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"beta": 2, "shift": shift}))
    with pytest.raises(ValueError, match=r": shift: must be a finite number"):
        parse_config(str(path))


def test_subnormal_hurst_rejected():
    # 1/5e-324 overflows, so Q is not finite and no regime can be read off
    with pytest.raises(ValueError, match="^hurst:.*not finite"):
        ExperimentConfig(hurst=(5e-324,))


def test_critical_hurst_warns():
    # only a path study on the config's own H reads the dichotomy, so the
    # config itself builds silently and refinement_study warns
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cfg = ExperimentConfig(beta=1, hurst=(0.5,), intervals=16, replicas=2)
    with pytest.warns(UserWarning, match="critical case"):
        refinement_study(cfg)


def test_swept_hurst_is_checked_against_the_configs_beta():
    # 0.34 is 0.16 from beta 1's critical 0.5 and 0.007 from beta 2's 1/3;
    # phase_sweep applies the same margin to library callers
    cfg = ExperimentConfig(beta=1, extras={"sweep": {"hurst_values": [0.34]}})
    with pytest.raises(ValueError, match=r"^sweep.hurst_values: H=0.34 is within 0.02"):
        cfg.replace(beta=2)
    with pytest.raises(ValueError, match=r"^hurst_values: H=0.34 is within 0.02"):
        phase_sweep([0.34], cfg.replace(beta=2, extras={}))


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


def test_path_hurst_is_the_one_entry():
    # every path experiment reads its H here; a sheet's Hurst vector has none
    assert ExperimentConfig(hurst=0.3).path_hurst() == 0.3
    with pytest.raises(NotImplementedError, match="^path experiments are implemented for 1-param"):
        ExperimentConfig(hurst=(0.3, 0.4)).path_hurst()


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


def test_shift_is_a_read_only_copy():
    # a config's shift cannot be changed after validation, e.g. to nan, which
    # would make a run report 0 hits; the caller's array is left writable
    A = np.zeros((2, 2))
    cfg = ExperimentConfig(shift=A)
    with pytest.raises(ValueError, match="read-only"):
        cfg.shift[0, 0] = np.nan
    A[0, 0] = 1.0
    assert A.flags.writeable and cfg.shift[0, 0] == 0.0
    assert not cfg.replace(replicas=5).shift.flags.writeable


def test_equality_uses_shift_values():
    a = ExperimentConfig(shift=np.zeros((2, 2)))
    b = ExperimentConfig(shift=None)
    assert a == b  # zero shift and no shift are the same experiment
    c = ExperimentConfig(shift=np.eye(2))
    assert a != c
