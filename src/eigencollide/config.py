"""Experiment configuration: dataclass, JSON parsing, and the manifest's config block.

Config files are JSON with a flat core, one key per ExperimentConfig field
(beta, d, hurst, interval, intervals, replicas, kappa, seed, shift,
mesh_ladder), plus optional per-subcommand sections (sweep, gapfit,
capacity, boxdim, smalltime), whose keys, value rules and defaults are in
_SECTIONS; ExperimentConfig checks them when built. config_to_dict gives the
JSON form the manifest records, and parsing it back gives the same config:
Python's float repr is shortest-exact, so JSON serialization loses nothing.
"""

from __future__ import annotations

import dataclasses
import json
import numbers
import sys
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .capacity import q_index
from .ensembles import _check_integral, n_beta, validate_shift

__all__ = ["ExperimentConfig", "parse_config", "config_to_dict"]


def _number(v, name: str) -> float:
    # bool is an int subclass and null is JSON's; neither is a number here. The
    # bound rejects nan, inf and integers too large for a float, with no cast
    if isinstance(v, bool) or not isinstance(v, numbers.Real) or not abs(v) <= sys.float_info.max:
        raise ValueError(f"{name}: must be a finite number, got {v!r}")
    return float(v)


def _check_shift_entries(shift) -> None:
    # each entry of a shift, and each part of a complex one, is a number by
    # _number's rule; asarray would turn "1.5" into 1.5 and True into 1
    for v in np.asarray(shift, dtype=object).flat:
        if isinstance(v, numbers.Complex) and not isinstance(v, numbers.Real):
            _number(v.real, "shift")
            v = v.imag
        _number(v, "shift")


def _validate_ladder(mesh_ladder: Sequence[int]) -> tuple:
    """Check a refinement ladder for nested-grid coupling; returns it as ints.

    Meshes must be positive and strictly increasing, and each must divide the
    finest, so every coarser grid is a strided subgrid of the finest one.
    """
    ladder = tuple(_check_integral(N, "mesh_ladder") for N in mesh_ladder)
    if not ladder or list(ladder) != sorted(set(ladder)) or ladder[0] < 1:
        raise ValueError(f"mesh_ladder: need strictly increasing positive meshes, got {ladder}")
    if any(ladder[-1] % N for N in ladder):
        raise ValueError(f"mesh_ladder: every mesh must divide the finest, got {ladder}")
    return ladder


def _numbers(v, name: str, length=None) -> tuple:
    if not isinstance(v, (list, tuple)) or length not in (None, len(v)):
        what = "a list of numbers" if length is None else f"{length} numbers"
        raise ValueError(f"{name}: must be {what}, got {v!r}")
    return tuple(_number(x, name) for x in v)


def _time_ladder(v, name: str) -> tuple:
    """Window lengths T of a small-time study: one or more, positive and non-increasing."""
    Ts = _numbers(v, name)
    if not Ts or any(T <= 0 for T in Ts) or sorted(Ts, reverse=True) != list(Ts):
        raise ValueError(f"{name}: need one or more positive, non-increasing lengths, got {v!r}")
    return Ts


def _hurst_values(v, name: str) -> tuple:
    hs = _numbers(v, name)
    if not hs:
        raise ValueError(f"{name}: need at least one Hurst value, got {v!r}")
    for h in hs:
        if not 0.0 < h < 1.0:
            raise ValueError(f"{name}: components must lie strictly in (0,1), got {h}")
    return hs


def _bounded(rule, ok, what: str):
    """A value rule: rule, then ok(value) or an error naming the field and what it must be."""
    def check(v, name: str):
        if not ok(x := rule(v, name)):
            raise ValueError(f"{name}: must be {what}, got {v!r}")
        return x
    return check


# section -> key -> (value rule, default). A callable default is worked out
# from (beta, d); a default of None means the key has none.
_SECTIONS = {
    "sweep": {"hurst_values": (_hurst_values, None)},
    "gapfit": {  # gap_exponent_fit's own rules
        "t0": (_bounded(_number, lambda t: t > 0, "positive"), 1.0),
        "samples": (_bounded(_check_integral, lambda n: n >= 10_000, "at least 10000"), 100_000),
        "window": (
            _bounded(lambda v, n: _numbers(v, n, 2), lambda w: 0 < w[0] < w[1], "0 < lo < hi"),
            lambda beta, d: (0.1, 0.5) if beta == 1 else (0.25, 0.9),
        ),
    },
    "capacity": {
        "alpha": (_number, 0.5),
        "pairs": (_bounded(_check_integral, lambda n: n >= 1, "at least 1"), 200_000),
        # supercritical: dim F + 0.5, where dim F = n_beta - beta - 1
        "divergent_alpha": (_number, lambda beta, d: (n_beta(beta, d) - beta - 1) + 0.5),
        "oracle_pairs": (_bounded(_check_integral, lambda n: n >= 1, "at least 1"), 1_000_000),
    },
    "boxdim": {"points": (_bounded(_check_integral, lambda n: n >= 1000, "at least 1000"), 4000),
               "nscales": (_bounded(_check_integral, lambda n: n >= 4, "at least 4"), 6)},
    "smalltime": {"T_values": (_time_ladder, None)},
}


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    """Everything a collision experiment needs, validated at construction.

    interval is the time window [a, b], 0 < a < b, on which the collision
    experiments sample; intervals is its mesh cell count N (grid of N+1 points);
    mesh_ladder optionally lists the N values of a refinement ladder, whose
    finest entry must equal intervals; kappa scales the threshold
    delta = kappa * mesh^H. extras holds the optional per-subcommand
    sections as given; they are checked here, and section() reads one.
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
        if _check_integral(self.beta, "beta") not in (1, 2):
            raise ValueError(f"beta: must be 1 or 2, got {self.beta}")
        object.__setattr__(self, "beta", int(self.beta))
        if _check_integral(self.d, "d") < 2:
            raise ValueError(f"d: matrix dimension must be >= 2, got {self.d}")
        object.__setattr__(self, "d", int(self.d))
        hurst = _hurst_values(np.atleast_1d(self.hurst).tolist(), "hurst")
        try:
            q_index(hurst)
        except ValueError as e:
            raise ValueError(f"hurst: {e}") from e
        object.__setattr__(self, "hurst", hurst)
        a, b = _numbers(self.interval, "interval", 2)
        if not 0.0 < a < b:
            raise ValueError(f"interval: need 0 < a < b, got ({a}, {b})")
        object.__setattr__(self, "interval", (a, b))
        if _check_integral(self.intervals, "intervals") < 1:
            raise ValueError(f"intervals: need >= 1 mesh cell, got {self.intervals}")
        object.__setattr__(self, "intervals", int(self.intervals))
        if _check_integral(self.replicas, "replicas") < 1:
            raise ValueError(f"replicas: need >= 1, got {self.replicas}")
        object.__setattr__(self, "replicas", int(self.replicas))
        kappa = _number(self.kappa, "kappa")
        if not kappa > 0.0:
            raise ValueError(f"kappa: threshold scale must be positive, got {self.kappa}")
        object.__setattr__(self, "kappa", kappa)
        if _check_integral(self.seed, "seed") < 0:
            raise ValueError(f"seed: must be a nonnegative integer, got {self.seed}")
        object.__setattr__(self, "seed", int(self.seed))
        if self.shift is not None:
            _check_shift_entries(self.shift)
            # a read-only copy: the caller's array stays writable, and
            # writing to it later cannot change this config
            shift = np.array(self.shift)
            shift.flags.writeable = False
            try:
                validate_shift(shift, self.beta, self.d)
            except ValueError as e:
                raise ValueError(f"shift: {e}") from e
            object.__setattr__(self, "shift", shift)
        if self.mesh_ladder is not None:
            object.__setattr__(self, "mesh_ladder", _validate_ladder(self.mesh_ladder))
            if self.mesh_ladder[-1] != self.intervals:
                raise ValueError(
                    f"intervals: must equal the finest mesh_ladder entry "
                    f"{self.mesh_ladder[-1]}, got {self.intervals}"
                )
        unknown = set(self.extras) - set(_SECTIONS)
        if unknown:
            raise ValueError(f"unknown keys {sorted(unknown)}")
        for name, given in self.extras.items():
            if not isinstance(given, dict):
                raise ValueError(f"section {name} must be an object")
            unknown = set(given) - set(_SECTIONS[name])
            if unknown:
                raise ValueError(f"section {name}: unknown keys {sorted(unknown)}")
            self.section(name)  # applies every value rule

    def ladder(self) -> tuple:
        return self.mesh_ladder if self.mesh_ladder is not None else (self.intervals,)

    def path_hurst(self) -> float:
        """The one H of a sampled path; a multi-entry hurst has none."""
        if len(self.hurst) != 1:
            raise NotImplementedError(
                "path experiments are implemented for 1-parameter time only; "
                "multiparameter Hurst vectors enter through the decision rule"
            )
        return self.hurst[0]

    def section(self, name: str) -> dict:
        """The named section's values, checked, over its defaults for this beta and d."""
        given = self.extras.get(name, {})
        out = {}
        for key, (rule, default) in _SECTIONS[name].items():
            if key in given:
                out[key] = rule(given[key], f"{name}.{key}")
            else:
                out[key] = default(self.beta, self.d) if callable(default) else default
        return out

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


# the top-level config keys: every dataclass field but the sections
_CORE_FIELDS = tuple(f.name for f in dataclasses.fields(ExperimentConfig) if f.name != "extras")


def _parse_shift(raw, d: int):
    if raw is None:
        return None
    if isinstance(raw, dict):
        keys = set(raw)
        if not keys <= {"real", "imag"}:
            raise ValueError(f"shift: unknown keys {sorted(keys - {'real', 'imag'})}")
        parts = [raw.get(key, np.zeros((d, d))) for key in ("real", "imag")]
        for part in parts:
            _check_shift_entries(part)
        real, imag = (np.asarray(part, dtype=float) for part in parts)
        return real + 1j * imag
    _check_shift_entries(raw)
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
    # every key but the core fields is a section, which the dataclass checks
    kw = {key: raw.pop(key) for key in _CORE_FIELDS if key in raw}
    try:
        if "shift" in kw:
            d = _check_integral(kw.get("d", ExperimentConfig.d), "d")
            kw["shift"] = _parse_shift(kw["shift"], d)
        return ExperimentConfig(**kw, extras=raw)
    except ValueError as e:
        raise ValueError(f"config {path}: {e}") from e


def config_to_dict(config: ExperimentConfig) -> dict:
    """JSON-ready dict; inverse of parse_config up to defaulting."""
    out = {}
    for name in _CORE_FIELDS:
        v = getattr(config, name)
        if isinstance(v, tuple):
            v = list(v)
        elif np.iscomplexobj(v):  # the shift
            v = {"real": v.real.tolist(), "imag": v.imag.tolist()}
        elif isinstance(v, np.ndarray):
            v = v.tolist()
        out[name] = v
    out.update(config.extras)
    return out
