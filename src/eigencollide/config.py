"""Experiment configuration: dataclass, JSON parsing, and the manifest's config block.

Config files are JSON with a flat core (beta, d, hurst, interval, intervals,
replicas, kappa, seed, shift, mesh_ladder) plus optional per-subcommand
sections (sweep, gapfit, capacity, boxdim, smalltime). A section must be an
object with only the keys in _SECTION_KEYS; its values are validated by
their consumers. config_to_dict gives the JSON form the manifest records,
and parsing it back gives the same config: Python's float repr is
shortest-exact, so JSON serialization loses nothing.
"""

from __future__ import annotations

import dataclasses
import json
import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .capacity import collision_regime, q_index
from .ensembles import _check_integral, validate_shift
from .experiments import validate_ladder

__all__ = ["ExperimentConfig", "parse_config", "config_to_dict"]

_SECTION_KEYS = {
    "sweep": ("hurst_values",),
    "gapfit": ("t0", "samples", "window"),
    "capacity": ("alpha", "pairs", "divergent_alpha", "oracle_pairs"),
    "boxdim": ("points", "nscales"),
    "smalltime": ("T_values",),
}
_CORE_KEYS = (
    "beta",
    "d",
    "hurst",
    "interval",
    "intervals",
    "replicas",
    "kappa",
    "seed",
    "shift",
    "mesh_ladder",
)


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    """Everything a collision experiment needs, validated at construction.

    intervals is the mesh cell count N on [a, b] (grid of N+1 points);
    mesh_ladder optionally lists the N values of a refinement ladder, whose
    finest entry must equal intervals; kappa scales the threshold
    delta = kappa * mesh^H. extras holds the optional per-subcommand
    sections untouched.
    """

    beta: int = 1
    d: int = 2
    hurst: tuple = (0.3,)
    interval: tuple = (1.0, 2.0)
    intervals: int = 1024
    replicas: int = 1000
    kappa: float = 1.0
    seed: int = 20260822
    shift: Optional[np.ndarray] = None
    mesh_ladder: Optional[tuple] = None
    extras: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.beta not in (1, 2):
            raise ValueError(f"beta: must be 1 or 2, got {self.beta}")
        if _check_integral(self.d, "d") < 2:
            raise ValueError(f"d: matrix dimension must be >= 2, got {self.d}")
        object.__setattr__(self, "d", int(self.d))
        hurst = tuple(float(h) for h in np.atleast_1d(self.hurst))
        for h in hurst:
            if not 0.0 < h < 1.0:
                raise ValueError(f"hurst: components must lie strictly in (0,1), got {h}")
        try:
            Q = q_index(hurst)
        except ValueError as e:
            raise ValueError(f"hurst: {e}") from e
        object.__setattr__(self, "hurst", hurst)
        a, b = (float(x) for x in self.interval)
        if not 0.0 <= a < b:
            raise ValueError(f"interval: need 0 <= a < b, got ({a}, {b})")
        object.__setattr__(self, "interval", (a, b))
        if _check_integral(self.intervals, "intervals") < 1:
            raise ValueError(f"intervals: need >= 1 mesh cell, got {self.intervals}")
        object.__setattr__(self, "intervals", int(self.intervals))
        if _check_integral(self.replicas, "replicas") < 1:
            raise ValueError(f"replicas: need >= 1, got {self.replicas}")
        object.__setattr__(self, "replicas", int(self.replicas))
        if not float(self.kappa) > 0.0:
            raise ValueError(f"kappa: threshold scale must be positive, got {self.kappa}")
        object.__setattr__(self, "kappa", float(self.kappa))
        object.__setattr__(self, "seed", _check_integral(self.seed, "seed"))
        if self.shift is not None:
            try:
                validate_shift(self.shift, self.beta, self.d)
            except ValueError as e:
                raise ValueError(f"shift: {e}") from e
            object.__setattr__(self, "shift", np.asarray(self.shift))
        if self.mesh_ladder is not None:
            object.__setattr__(self, "mesh_ladder", validate_ladder(self.mesh_ladder))
            if self.mesh_ladder[-1] != self.intervals:
                raise ValueError(
                    f"intervals: must equal the finest mesh_ladder entry "
                    f"{self.mesh_ladder[-1]}, got {self.intervals}"
                )
        if collision_regime(self.beta, self.hurst) == "critical":
            warnings.warn(
                f"Q = {Q:.6g} equals beta+1 = {self.beta + 1}: "
                "critical case, the collision dichotomy is undecided here",
                UserWarning,
            )

    def ladder(self) -> tuple:
        return self.mesh_ladder if self.mesh_ladder is not None else (self.intervals,)

    def replace(self, **kw) -> "ExperimentConfig":
        return dataclasses.replace(self, **kw)

    def __eq__(self, other):
        if not isinstance(other, ExperimentConfig):
            return NotImplemented
        for f in dataclasses.fields(self):
            a, b = getattr(self, f.name), getattr(other, f.name)
            if f.name == "shift":
                an = np.zeros((self.d, self.d)) if a is None else np.asarray(a)
                bn = np.zeros((other.d, other.d)) if b is None else np.asarray(b)
                if an.shape != bn.shape or not np.array_equal(an, bn):
                    return False
            elif a != b:
                return False
        return True


def _parse_shift(raw, d: int):
    if raw is None:
        return None
    if isinstance(raw, dict):
        keys = set(raw)
        if not keys <= {"real", "imag"}:
            raise ValueError(f"shift: unknown keys {sorted(keys - {'real', 'imag'})}")
        real = np.asarray(raw.get("real", np.zeros((d, d))), dtype=float)
        imag = np.asarray(raw.get("imag", np.zeros((d, d))), dtype=float)
        return real + 1j * imag
    return np.asarray(raw, dtype=float)


def parse_config(path: str) -> ExperimentConfig:
    """Load and validate a JSON experiment config; field-level error messages."""
    with open(path) as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as e:
            raise ValueError(f"config {path}: invalid JSON ({e})") from e
    if not isinstance(raw, dict):
        raise ValueError(f"config {path}: top level must be an object")
    unknown = set(raw) - set(_CORE_KEYS) - set(_SECTION_KEYS)
    if unknown:
        raise ValueError(f"config {path}: unknown keys {sorted(unknown)}")
    kw = {}
    for key in _CORE_KEYS:
        if key in raw:
            kw[key] = raw[key]
    if "shift" in kw:
        kw["shift"] = _parse_shift(kw["shift"], _check_integral(raw.get("d", 2), "d"))
    if "hurst" in kw and np.isscalar(kw["hurst"]):
        kw["hurst"] = (kw["hurst"],)
    extras = {k: raw[k] for k in _SECTION_KEYS if k in raw}
    for name, section in extras.items():
        if not isinstance(section, dict):
            raise ValueError(f"config {path}: section {name} must be an object")
        unknown = set(section) - set(_SECTION_KEYS[name])
        if unknown:
            raise ValueError(f"config {path}: section {name}: unknown keys {sorted(unknown)}")
    try:
        return ExperimentConfig(**kw, extras=extras)
    except ValueError as e:
        raise ValueError(f"config {path}: {e}") from e


def config_to_dict(config: ExperimentConfig) -> dict:
    """JSON-ready dict; inverse of parse_config up to defaulting."""
    out = {
        "beta": config.beta,
        "d": config.d,
        "hurst": list(config.hurst),
        "interval": list(config.interval),
        "intervals": config.intervals,
        "replicas": config.replicas,
        "kappa": config.kappa,
        "seed": config.seed,
    }
    if config.shift is not None:
        A = np.asarray(config.shift)
        if np.iscomplexobj(A):
            out["shift"] = {"real": A.real.tolist(), "imag": A.imag.tolist()}
        else:
            out["shift"] = A.tolist()
    else:
        out["shift"] = None
    out["mesh_ladder"] = list(config.mesh_ladder) if config.mesh_ladder else None
    out.update(config.extras)
    return out
