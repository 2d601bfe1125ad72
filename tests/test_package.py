"""The package's public surface, and the README's python and command-line demos end to end."""

import ast
import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import eigencollide
import eigencollide.cli as cli

ROOT = Path(__file__).resolve().parents[1]

PUBLIC = {
    "__version__",
    "ExperimentConfig",
    "box_counting_dim", "capacity_lower_bound", "collision_regime", "energy_integral",
    "f_alpha", "q_index",
    "complete_frame", "random_stiefel", "sample_degenerate",
    "eigenprojection_contour", "gap_closed_form_2x2", "ordered_eigenvalues",
    "fbm_covariance", "sheet_covariance", "volterra_kernel",
    "gap_exponent_fit", "phase_sweep", "refinement_study", "small_time_study",
    "matrix_to_vec", "n_beta", "vec_to_matrix",
    "parse_config", "substream",
}


def test_package_exports_are_pinned():
    assert len(eigencollide.__all__) == len(set(eigencollide.__all__)) == len(PUBLIC) == 26
    assert set(eigencollide.__all__) == PUBLIC


# each module's __all__; cli and streams have none. With the package's own
# list they hold 46 distinct names
MODULE_EXPORTS = {
    "capacity": {
        "EnergyEstimate", "CapacityBound", "BoxCountResult", "f_alpha", "q_index",
        "collision_regime", "energy_integral", "capacity_lower_bound", "box_counting_dim",
        "uniform_unit_interval",
    },
    "config": {"ExperimentConfig", "parse_config", "config_to_dict"},
    "ensembles": {
        "n_beta", "vec_to_matrix", "matrix_to_vec", "diagonal_positions", "coefficient_scale",
        "validate_shift",
    },
    "experiments": {
        "CollisionStats", "RefinementResult", "PhaseSweepResult", "ExponentFit",
        "refinement_study", "gap_exponent_fit", "phase_sweep", "small_time_study",
        "oracle_vector_reduction", "flattened_degenerate_sampler", "degenerate_point_cloud",
    },
    "fields": {
        "fbm_covariance", "sheet_covariance", "covariance_matrix", "fgn_sqrt_eigenvalues",
        "fgn_from_normals", "volterra_kernel", "volterra_covariance_quadrature",
    },
    "geometry": {"complete_frame", "random_stiefel", "sample_degenerate"},
    "spectral": {
        "ordered_eigenvalues", "gap_closed_form_2x2", "adjacent_gaps", "eigenprojection_contour",
    },
}


def test_module_exports_are_pinned():
    for info in pkgutil.iter_modules(eigencollide.__path__):
        exports = getattr(importlib.import_module(f"eigencollide.{info.name}"), "__all__", None)
        if info.name not in MODULE_EXPORTS:
            assert exports is None, f"eigencollide.{info.name} has an unpinned __all__"
            continue
        assert len(exports) == len(set(exports)), f"eigencollide.{info.name}.__all__ repeats"
        assert set(exports) == MODULE_EXPORTS[info.name], info.name
    assert len(set(eigencollide.__all__).union(*MODULE_EXPORTS.values())) == 46


def test_every_submodule_export_resolves():
    for info in pkgutil.iter_modules(eigencollide.__path__):
        module = importlib.import_module(f"eigencollide.{info.name}")
        stale = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        assert not stale, f"eigencollide.{info.name}.__all__ names missing {stale}"


def _unused_imports(source: str) -> list:
    """Names a module imports but neither uses nor lists in its __all__."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {elt.value for elt in node.value.elts}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def _src_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return env


# the scipy subpackages no subcommand may load; importing scipy.linalg and
# scipy.sparse nearly doubled a run's start-up time
_HEAVY_SCIPY = (
    "scipy.linalg", "scipy.sparse", "scipy.fft", "scipy.special",
    "scipy.integrate", "scipy.spatial", "scipy.stats",
)

_RUN_EVERY_SUBCOMMAND = """
import json, os, sys
import eigencollide.cli as cli
from eigencollide.experiments import small_time_study

tmp = os.getcwd()
for beta, d in ((1, 2), (2, 2), (1, 3), (2, 3)):
    cfg = {
        "beta": beta, "d": d, "hurst": 0.25, "interval": [1.0, 2.0], "intervals": 64,
        "mesh_ladder": [32, 64], "replicas": 8, "seed": 5,
        "sweep": {"hurst_values": [0.2, 0.7]},
        "gapfit": {"samples": 10000},
        "capacity": {"pairs": 200, "oracle_pairs": 400},
        "boxdim": {"points": 1000},
    }
    path = os.path.join(tmp, f"b{beta}d{d}.json")
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    for sub in ("simulate", "sweep", "gapfit", "capacity", "boxdim", "selfcheck"):
        out = os.path.join(tmp, f"{sub}-b{beta}d{d}")
        assert cli.main([sub, "--config", path, "--out", out]) == 0, sub
small_time_study(2, 4, None, [1.0, 0.5], 0.25, 16, 8, 7, threads=2)
print(json.dumps(sorted(m for m in HEAVY if m in sys.modules)))
"""


def test_subcommands_import_no_scipy_subpackage(tmp_path):
    # one fresh process runs every subcommand and the d = 4 small-time study
    code = f"HEAVY = {_HEAVY_SCIPY!r}\n" + _RUN_EVERY_SUBCOMMAND
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=tmp_path, env=_src_env(), capture_output=True,
        text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "[]"


def test_unused_import_scan_flags_a_dead_import():
    assert _unused_imports("import os\nfrom a import b, c\n__all__ = ['c']\n") == [
        "b (line 2)", "os (line 1)",
    ]


def test_no_module_imports_a_name_it_does_not_use():
    for path in sorted((ROOT / "src" / "eigencollide").glob("*.py")):
        dead = _unused_imports(path.read_text())
        assert not dead, f"{path.name} imports unused names: {dead}"


def test_only_spectral_calls_the_eigensolver():
    # spectral.ordered_eigenvalues is the one route to np.linalg.eigvalsh; a
    # direct call elsewhere would skip its Hermitian check and descending order
    for path in sorted((ROOT / "src" / "eigencollide").glob("*.py")):
        calls = [
            node.lineno
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute) and node.attr == "eigvalsh"
        ]
        if path.name == "spectral.py":
            assert len(calls) == 1
        else:
            assert not calls, f"{path.name} calls eigvalsh on lines {calls}"


# the README's demos run with fewer samples and pairs, and the sweep with
# --replicas 16; every other value is the README's
_DEMO_SIZE = {
    "sweep": {},
    "gapfit": {"samples": 10_000},
    "capacity": {"pairs": 2000, "oracle_pairs": 4000},
}


def test_readme_python_blocks_run():
    # a name a block imports that the package no longer has fails here
    blocks = (ROOT / "README.md").read_text().split("```python\n")[1:]
    assert blocks
    for block in blocks:
        exec(compile(block.split("```", 1)[0], "README.md", "exec"), {})


def test_readme_demos_run(tmp_path):
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Demos from the command line\n", 1)[1].split("\n## ", 1)[0]
    ran = []
    for block in section.split("```json\n")[1:]:
        cfg = json.loads(block.split("```", 1)[0])
        (sub,) = set(cfg) & set(_DEMO_SIZE)  # the subcommand is the demo's one section
        cfg[sub].update(_DEMO_SIZE[sub])
        path = tmp_path / f"{sub}.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / sub
        fewer = ["--replicas", "16"] if sub == "sweep" else []
        assert cli.main([sub, "--config", str(path), *fewer, "--out", str(out)]) == 0
        assert (out / "results.csv").read_text().count("\n") > 1
        ran.append(sub)
    assert sorted(ran) == ["capacity", "gapfit", "sweep"]
