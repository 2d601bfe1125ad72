"""CLI: subcommands, flag/file precedence, result files, manifests."""

import json
import os
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eigencollide.cli import main
from eigencollide.config import parse_config
from eigencollide.ensembles import n_beta
from eigencollide.streams import STREAM_VERSION


@pytest.fixture
def small_config(tmp_path):
    cfg = {
        "beta": 1,
        "d": 2,
        "hurst": 0.25,
        "interval": [1.0, 2.0],
        "intervals": 128,
        "replicas": 150,
        "seed": 4242,
        "mesh_ladder": [64, 128],
        "sweep": {"hurst_values": [0.2, 0.8]},
        "gapfit": {"samples": 15000},
        "capacity": {"pairs": 8000, "oracle_pairs": 20000},
        "boxdim": {"points": 1500},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def run(args):
    return main(args)


def read_csv(path):
    with open(path) as fh:
        lines = fh.read().strip().split("\n")
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def test_simulate_writes_results_and_manifest(tmp_path, small_config):
    out = tmp_path / "out"
    assert run(["simulate", "--config", small_config, "--out", str(out)]) == 0
    rows = read_csv(out / "results.csv")
    assert len(rows) == 2  # one per ladder mesh
    assert rows[0]["kind"] == "simulate"
    assert rows[0]["regime"] == "collision"
    assert int(rows[1]["mesh_cells"]) == 128
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["master_seed"] == 4242
    assert manifest["subcommand"] == "simulate"
    assert manifest["stream_version"] == STREAM_VERSION == 8
    assert manifest["config"]["replicas"] == 150
    assert "started" in manifest and "finished" in manifest


def test_manifest_records_the_environment(tmp_path, small_config):
    out = tmp_path / "out"
    assert run(["simulate", "--config", small_config, "--out", str(out)]) == 0
    env = json.loads((out / "manifest.json").read_text())["environment"]
    assert set(env) == {"python", "numpy", "scipy", "nproc"}
    assert env["numpy"] == np.__version__ and env["python"].count(".") == 2
    assert isinstance(env["nproc"], int) and env["nproc"] >= 1


def test_manifest_records_what_the_run_cost(tmp_path, small_config):
    # process CPU seconds and minor page faults over the run, and the peak
    # resident set, from getrusage; the results file does not carry them
    out = tmp_path / "out"
    assert run(["simulate", "--config", small_config, "--out", str(out)]) == 0
    res = json.loads((out / "manifest.json").read_text())["resources"]
    assert set(res) == {"cpu_s", "peak_rss_mb", "minor_faults"}
    assert isinstance(res["cpu_s"], float) and res["cpu_s"] > 0
    assert isinstance(res["peak_rss_mb"], float) and res["peak_rss_mb"] > 1
    assert isinstance(res["minor_faults"], int) and res["minor_faults"] >= 0
    assert "cpu_s" not in (out / "results.csv").read_text()


def test_results_have_no_timestamps(tmp_path, small_config):
    out = tmp_path / "out"
    run(["simulate", "--config", small_config, "--out", str(out)])
    text = (out / "results.csv").read_text()
    assert "20" + "26" not in text  # no dates leak into result rows


def test_jsonl_floats_round_trip(tmp_path, small_config):
    out = tmp_path / "out"
    assert run(["simulate", "--config", small_config, "--out", str(out), "--format", "jsonl"]) == 0
    lines = (out / "results.jsonl").read_text().strip().split("\n")
    assert len(lines) == 2
    rec = json.loads(lines[0])
    assert rec["hits"] == int(rec["hits"])
    # 17 significant digits reproduce the float bit for bit
    assert rec["delta"] == (1.0 / 64.0) ** 0.25


def test_worker_count_does_not_change_bytes(tmp_path, small_config):
    blobs = []
    for t in (1, 4, 8):
        out = tmp_path / f"out{t}"
        assert run(["simulate", "--config", small_config, "--out", str(out), "--threads", str(t)]) == 0
        blobs.append((out / "results.csv").read_bytes())
    assert blobs[0] == blobs[1] == blobs[2]


def test_flag_overrides_file(tmp_path, small_config):
    out1 = tmp_path / "a"
    assert run(["simulate", "--config", small_config, "--out", str(out1)]) == 0
    m1 = json.loads((out1 / "manifest.json").read_text())
    assert m1["master_seed"] == 4242  # file beats default

    out2 = tmp_path / "b"
    assert run(["simulate", "--config", small_config, "--out", str(out2), "--seed", "2222"]) == 0
    m2 = json.loads((out2 / "manifest.json").read_text())
    assert m2["master_seed"] == 2222  # flag beats file


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_threads_below_one_errors(tmp_path, small_config, capsys, threads):
    # a count below 1 would run serially and record it in the manifest
    out = tmp_path / "out"
    assert run(["simulate", "--config", small_config, "--out", str(out), "--threads", threads]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: --threads: ") and err.count("\n") == 1
    assert not (out / "results.csv").exists()


def test_negative_seed_errors(tmp_path, small_config, capsys):
    # from the file or from --seed, the error names the field before any sampling
    path = tmp_path / "negative-seed.json"
    path.write_text(json.dumps({"seed": -5, "replicas": 4, "intervals": 64}))
    for args, prefix in (
        (["--config", str(path)], f"error: config {path}: seed: "),
        (["--config", small_config, "--seed", "-5"], "error: seed: "),
    ):
        out = tmp_path / "out"
        assert run(["simulate", *args, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(prefix + "must be a nonnegative integer") and err.count("\n") == 1
        assert not (out / "results.csv").exists()


def test_environment_does_not_configure_a_run(tmp_path, small_config, monkeypatch):
    # settings come from flags and the config file only; a stale variable
    # left in the shell must not change a run
    monkeypatch.setenv("EIGENCOLLIDE_SEED", "1111")
    monkeypatch.setenv("EIGENCOLLIDE_CONFIG", str(tmp_path / "missing.json"))
    monkeypatch.setenv("EIGENCOLLIDE_FORMAT", "jsonl")
    out = tmp_path / "out"
    assert run(["simulate", "--config", small_config, "--out", str(out)]) == 0
    assert json.loads((out / "manifest.json").read_text())["master_seed"] == 4242
    assert (out / "results.csv").exists() and not (out / "results.jsonl").exists()


def test_replicas_override(tmp_path, small_config):
    out = tmp_path / "out"
    run(["simulate", "--config", small_config, "--out", str(out), "--replicas", "60"])
    rows = read_csv(out / "results.csv")
    assert int(rows[0]["replicas"]) == 60


@pytest.mark.parametrize("subcommand", ["gapfit", "capacity", "boxdim", "selfcheck"])
def test_replicas_flag_only_where_replicas_are_read(tmp_path, small_config, capsys, subcommand):
    # these subcommands read no replica count, so --replicas would be ignored
    # while the manifest recorded it; argparse rejects it before any run
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        run([subcommand, "--config", small_config, "--out", str(out), "--replicas", "16"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --replicas 16" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("subcommand", ["gapfit", "capacity", "boxdim", "selfcheck"])
def test_threads_flag_only_where_a_pool_runs(tmp_path, small_config, capsys, subcommand):
    # these subcommands run no thread pool, so --threads would be ignored
    # while the manifest recorded it; argparse rejects it before any run,
    # and without it the manifest records the one worker that ran
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        run([subcommand, "--config", small_config, "--out", str(out), "--threads", "4"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --threads 4" in capsys.readouterr().err
    assert not out.exists()
    assert run([subcommand, "--config", small_config, "--out", str(out)]) == 0
    assert json.loads((out / "manifest.json").read_text())["worker_count"] == 1


@pytest.mark.parametrize("subcommand", ["gapfit", "capacity", "boxdim"])
def test_critical_hurst_does_not_warn_off_the_paths(tmp_path, subcommand):
    # H = 0.5 is critical at beta = 1, but these results do not depend on
    # the collision dichotomy
    path = tmp_path / "critical.json"
    path.write_text(json.dumps({
        "beta": 1, "hurst": 0.5, "gapfit": {"samples": 10000},
        "capacity": {"pairs": 200, "oracle_pairs": 200}, "boxdim": {"points": 1000},
    }))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run([subcommand, "--config", str(path), "--out", str(tmp_path / "out")]) == 0


def test_sweep_subcommand(tmp_path, small_config):
    out = tmp_path / "out"
    assert run(["sweep", "--config", small_config, "--out", str(out)]) == 0
    rows = read_csv(out / "results.csv")
    assert len(rows) == 4  # 2 H values x 2 meshes
    regimes = {r["regime"] for r in rows}
    assert regimes == {"collision", "no_collision"}
    assert float(rows[0]["separation_ratio"]) > 0


def test_sweep_requires_hurst_values(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"replicas": 10}))
    out = tmp_path / "out"
    assert run(["sweep", "--config", str(cfg), "--out", str(out)]) == 1


def test_gapfit_subcommand(tmp_path, small_config):
    out = tmp_path / "out"
    assert run(["gapfit", "--config", small_config, "--out", str(out)]) == 0
    (row,) = read_csv(out / "results.csv")
    assert float(row["expected_slope"]) == 2.0
    assert abs(float(row["slope"]) - 2.0) < 0.6


def test_capacity_subcommand(tmp_path, small_config):
    out = tmp_path / "out"
    assert run(["capacity", "--config", small_config, "--out", str(out)]) == 0
    rows = read_csv(out / "results.csv")
    kinds = [r["kind"] for r in rows]
    assert kinds[0] == "energy_unit_interval"
    assert kinds.count("degenerate_chart_bound") == 2
    divergent = {r["alpha"]: r["divergent"] for r in rows if "divergent" in r and r["kind"] == "degenerate_chart_bound"}
    assert divergent["0.5"] == "false"
    assert divergent["1.5"] == "true"


@pytest.mark.parametrize("beta, d, expected", [(1, 2, 1.5), (2, 2, 1.5), (1, 3, 4.5), (2, 3, 6.5)])
def test_capacity_divergent_alpha_default_is_above_dim_f(tmp_path, beta, d, expected):
    # dim F = n_beta - beta - 1; the default sits half a unit above it
    path = tmp_path / "config.json"
    cfg = {"beta": beta, "d": d, "capacity": {"pairs": 50, "oracle_pairs": 100}}
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert run(["capacity", "--config", str(path), "--out", str(out)]) == 0
    bounds = [r for r in read_csv(out / "results.csv") if r["kind"] == "degenerate_chart_bound"]
    assert [float(r["alpha"]) for r in bounds] == [0.5, expected]
    assert expected == n_beta(beta, d) - beta - 0.5


def test_boxdim_subcommand(tmp_path, small_config):
    out = tmp_path / "out"
    assert run(["boxdim", "--config", small_config, "--out", str(out)]) == 0
    (row,) = read_csv(out / "results.csv")
    assert abs(float(row["slope"]) - 1.0) < 0.25


def test_selfcheck_passes(tmp_path):
    out = tmp_path / "out"
    assert run(["selfcheck", "--out", str(out)]) == 0
    rows = read_csv(out / "results.csv")
    assert all(r["passed"] == "true" for r in rows)


def test_bad_config_path_errors(tmp_path, capsys):
    assert run(["simulate", "--config", str(tmp_path / "missing.json"), "--out", str(tmp_path)]) == 1
    assert "error:" in capsys.readouterr().err


def test_invalid_format_errors(tmp_path, small_config, capsys):
    # argparse's choices reject it before any work
    with pytest.raises(SystemExit):
        run(["simulate", "--config", small_config, "--out", str(tmp_path), "--format", "xml"])
    assert "--format" in capsys.readouterr().err
    assert not (tmp_path / "results.csv").exists()


def test_window_off_the_mesh_simulates(tmp_path):
    # a*N/(b-a) = 0.5*64/1.5 is not an integer: the window starts between
    # mesh points, which the conditional anchor samples exactly
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"interval": [0.5, 2.0], "intervals": 64, "replicas": 4}))
    parse_config(str(path))
    assert run(["simulate", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    rows = read_csv(tmp_path / "out" / "results.csv")
    assert len(rows) == 1 and float(rows[0]["a"]) == 0.5 and int(rows[0]["replicas"]) == 4


def test_unknown_section_key_errors(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"gapfit": {"sampels": 10}}))
    assert run(["gapfit", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "gapfit" in err and "sampels" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("gapfit", "window", [0.5]),
        ("capacity", "alpha", None),
        ("sweep", "hurst_values", 0.3),
        ("sweep", "hurst_values", [1.5]),  # not in (0, 1)
        ("sweep", "hurst_values", []),
        ("gapfit", "samples", 20000.7),  # int() would run 20000 samples
        ("capacity", "pairs", 10.9),
        ("boxdim", "points", "1500"),
        ("smalltime", "T_values", [0.5, 1.0]),  # increasing: small_time_study's own rule
        ("gapfit", "samples", 5000),  # gap_exponent_fit needs 1e4
        ("gapfit", "t0", 0.0),
        ("gapfit", "window", [0.5, 0.1]),
        ("boxdim", "points", 500),  # box_counting_dim needs 1000
        ("boxdim", "nscales", 3),  # and 4 scales
        ("capacity", "pairs", 0),  # capacity_lower_bound needs a pair
        ("capacity", "pairs", -5),
        ("capacity", "oracle_pairs", 0),
        ("smalltime", "T_values", []),  # a study needs a window
    ],
)
def test_malformed_section_value_errors(tmp_path, capsys, section, key, value):
    # checked when the config is built: one error line naming the field,
    # no traceback from deep in the run, and no silently coerced value.
    # No subcommand reads the smalltime section, but every one parses it
    path = tmp_path / "config.json"
    path.write_text(json.dumps({section: {key: value}}))
    out = tmp_path / "out"
    command = "simulate" if section == "smalltime" else section
    assert run([command, "--config", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: config {path}: {section}.{key}: ") and err.count("\n") == 1
    assert not (out / "results.csv").exists()


@pytest.mark.parametrize(
    "text, field",
    [
        ('{"kappa": 1' + "0" * 400 + "}", "kappa"),  # float() would overflow
        ('{"kappa": "1.5"}', "kappa"),
        ('{"interval": ["1", "2"]}', "interval"),
        ('{"hurst": "0.25"}', "hurst"),
    ],
)
def test_malformed_core_number_errors(tmp_path, capsys, text, field):
    path = tmp_path / "config.json"
    path.write_text(text)
    out = tmp_path / "out"
    assert run(["gapfit", "--config", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: config {path}: {field}: must be") and err.count("\n") == 1
    assert not (out / "results.csv").exists()


@pytest.mark.parametrize(
    "shift", [[["1.5", "0"], ["0", "1.5"]], [[True, False], [False, True]]]
)
def test_malformed_shift_errors(tmp_path, capsys, shift):
    # the shift's entries are numbers by the same rule as the core numbers
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"shift": shift, "replicas": 4, "intervals": 64}))
    out = tmp_path / "out"
    assert run(["simulate", "--config", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: config {path}: shift: must be") and err.count("\n") == 1
    assert not (out / "results.csv").exists()


def test_real_list_shift_simulates_and_round_trips(tmp_path):
    # a real shift given as a list of rows parses to a float array, runs, and
    # the manifest records it as rows again, which parse back to the same config
    shift = [[1.0, 0.25], [0.25, -0.5]]
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"shift": shift, "replicas": 4, "intervals": 64}))
    cfg = parse_config(str(path))
    assert cfg.shift.dtype == np.float64
    np.testing.assert_array_equal(cfg.shift, shift)
    out = tmp_path / "out"
    assert run(["simulate", "--config", str(path), "--out", str(out)]) == 0
    block = json.loads((out / "manifest.json").read_text())["config"]
    assert block["shift"] == shift
    back = tmp_path / "back.json"
    back.write_text(json.dumps(block))
    assert parse_config(str(back)) == cfg


def test_hurst_near_one_on_a_large_mesh_errors(tmp_path, capsys):
    # the window-start Toeplitz solve fails for 1 - H <= 1e-13 at 4096 cells
    # (ROADMAP item 9); until that is fixed the run must end in one error line
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"hurst": 0.9999999999999999, "intervals": 4096, "interval": [1, 2]}))
    out = tmp_path / "out"
    assert run(["simulate", "--config", str(path), "--replicas", "1", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: fGn Toeplitz solve failed") and "(H near 1)" in err
    assert err.count("\n") == 1 and not (out / "results.csv").exists()


def test_intervals_off_the_ladder_top_errors(tmp_path, capsys):
    # the run samples at the ladder's top; a different intervals would be
    # recorded in the manifest for a mesh that never ran
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"intervals": 1024, "mesh_ladder": [64, 128], "replicas": 4}))
    assert run(["simulate", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith(f"error: config {path}: intervals:")
    assert not (tmp_path / "out").exists()


def test_selfcheck_on_a_ladder_config(tmp_path, small_config):
    # selfcheck's oracle runs its own mesh, not the config's ladder
    out = tmp_path / "out"
    assert run(["selfcheck", "--config", small_config, "--out", str(out)]) == 0
    rows = read_csv(out / "results.csv")
    assert all(r["passed"] == "true" for r in rows)


# -- every config that parses runs ----------------------------------------------

_POWERS = [2**k for k in range(7)]  # 1 .. 64


@given(
    beta=st.sampled_from([1, 2]),
    d=st.sampled_from([2, 3]),
    hurst=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    a=st.one_of(st.floats(0.01, 4.0), st.integers(1, 64).map(lambda k: k / 16)),
    length=st.sampled_from([0.25, 0.5, 1.0, 3.0]),
    ladder=st.lists(st.sampled_from(_POWERS), min_size=1, max_size=4, unique=True).map(sorted),
    kappa=st.floats(0.1, 4.0),
)
@settings(max_examples=150, deadline=None)
# H one ulp below 1: the window's conditional start solves a singular system
@example(beta=1, d=2, hurst=0.9999999999999999, a=1.0, length=0.25, ladder=[8], kappa=1.0)
def test_every_parsed_config_simulates(beta, d, hurst, a, length, ladder, kappa):
    cfg = {
        "beta": beta, "d": d, "hurst": [hurst], "interval": [a, a + length],
        "intervals": ladder[-1], "mesh_ladder": ladder, "kappa": kappa, "seed": 5,
    }
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # the critical-case warning
            try:
                parse_config(path)
            except ValueError:
                return
            out = os.path.join(tmp, "out")
            rc = main(["simulate", "--config", path, "--replicas", "1", "--out", out])
        assert rc == 0, cfg


def test_configs_that_parse_but_do_not_simulate(tmp_path, capsys):
    # a multi-entry Hurst vector is a valid config (the decision rule reads
    # it), but the collision loop samples one-parameter time only
    path = tmp_path / "sheet.json"
    path.write_text(json.dumps({"hurst": [0.3, 0.4]}))
    parse_config(str(path))
    assert run(["simulate", "--config", str(path), "--out", str(tmp_path / "sheet")]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_gapfit_rejects_a_multi_entry_hurst(tmp_path, capsys):
    # gapfit's sampling scale is t0^H for the path's one H; it used to read
    # the first entry and drop the rest
    path = tmp_path / "sheet.json"
    path.write_text(json.dumps({"d": 2, "hurst": [0.3, 0.4], "gapfit": {"samples": 10000}}))
    out = tmp_path / "out"
    assert run(["gapfit", "--config", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: path experiments are implemented for 1-parameter time only")
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("subcommand", ["simulate", "gapfit"])
def test_window_from_the_origin_errors(tmp_path, capsys, subcommand):
    # one window rule, 0 < a < b, checked when the config is built, so a
    # subcommand that never reads the window rejects it too
    path = tmp_path / "origin.json"
    path.write_text(json.dumps({"interval": [0.0, 1.0]}))
    assert run([subcommand, "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith(f"error: config {path}: interval:")
    assert not (tmp_path / "out").exists()
