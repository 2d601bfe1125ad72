"""The package's public surface, and the documented scripts end to end."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import eigencollide

ROOT = Path(__file__).resolve().parents[1]

PUBLIC = {
    "__version__",
    "ExperimentConfig", "GridSpec",
    "box_counting_dim", "capacity_lower_bound", "collision_regime", "energy_integral",
    "f_alpha", "q_index",
    "complete_frame", "random_stiefel", "sample_degenerate",
    "eigenprojection_contour", "gap_closed_form_2x2", "ordered_eigenvalues",
    "fbm_covariance", "interval", "sample_field_exact", "sheet_covariance",
    "verify_regularity_bounds", "volterra_kernel",
    "gap_exponent_fit", "phase_sweep", "refinement_study", "small_time_study",
    "wilson_interval",
    "matrix_to_vec", "n_beta", "vec_to_matrix",
    "parse_config", "substream",
}


def test_package_exports_are_pinned():
    assert len(eigencollide.__all__) == len(set(eigencollide.__all__)) == len(PUBLIC) == 31
    assert set(eigencollide.__all__) == PUBLIC


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


def test_cli_import_leaves_out_the_quadrature_modules():
    # only the Volterra cross-check needs scipy.integrate and scipy.special
    code = "import sys, eigencollide.cli; print('scipy.integrate' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code], env=_src_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_unused_import_scan_flags_a_dead_import():
    assert _unused_imports("import os\nfrom a import b, c\n__all__ = ['c']\n") == [
        "b (line 2)", "os (line 1)",
    ]


def test_no_module_imports_a_name_it_does_not_use():
    for path in sorted((ROOT / "src" / "eigencollide").glob("*.py")):
        dead = _unused_imports(path.read_text())
        assert not dead, f"{path.name} imports unused names: {dead}"


def test_only_spectral_calls_the_eigensolver():
    # spectral.ordered_eigenvalues serializes np.linalg.eigvalsh across
    # threads; a direct call elsewhere would run outside that lock
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


@pytest.mark.parametrize(
    "script,args",
    [
        ("run_phase_sweep.py", ["--replicas", "64", "--ladder", "16", "32", "--hurst", "0.2", "0.8"]),
        ("run_gap_exponent.py", ["--samples", "10000"]),
        ("run_capacity_demo.py", ["--pairs", "2000"]),
    ],
)
def test_script_runs(script, args, tmp_path):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        cwd=tmp_path, env=_src_env(), capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
