"""Experiment configuration: one JSON document, strictly validated.

The config hash covers every field that can influence numbers; out_dir is an
execution detail and stays out of it, which is what lets a rerun into a
fresh directory reproduce byte-identical CSV output.  The offline hash
covers only the keys the offline stage reads (OFFLINE_KEYS) and the
ingested files' digests: it keys the reuse of offline artifacts, so a
change to a sweep-only key such as seeds or shot_grid reuses them.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
from dataclasses import asdict, dataclass
from pathlib import Path

from .errors import ConfigError, FieldError
from .flow import _check_reynolds

CASE_THRESHOLDS = {
    # (projection estimator threshold, encoding estimator threshold)
    "case1": (5e-3, 5e-3),
    "case2": (1e-3, 1e-3),
}

METHODS = ("PODR", "RSR", "FSR")


@dataclass(frozen=True)
class ExperimentConfig:
    problem: str
    nx: int
    ny: int
    case: str = "case1"
    methods: tuple = METHODS
    shot_grid: tuple = (1_000, 10_000, 100_000, 1_000_000)
    seeds: tuple = (0, 1, 2, 3, 4)
    beta: float = 2.0
    out_dir: str = "out"
    # cavity ensembles
    reynolds: tuple = ()
    target_reynolds: float | None = None
    # synthetic transient ensembles
    window: tuple | None = None
    period: int = 50
    target_step: int | None = None
    transient_seed: int = 7
    # ingested ensembles
    snapshot_ux: str | None = None
    snapshot_uy: str | None = None
    target_index: int | None = None
    # offline-stage knobs
    chi_cap: int = 16
    solver_tol: float = 1e-6
    max_iters: int = 400_000
    # online-stage knobs
    fsr_cutoff: float = 1e-4
    sign_oracle: bool = True
    # studies
    param_sweep: tuple | None = None
    grid_sizes: tuple = (1024, 4096, 16384)

    @property
    def thresholds(self):
        return CASE_THRESHOLDS[self.case]

    @property
    def grid_points(self) -> int:
        return self.nx * self.ny


_FIELD_NAMES = {f for f in ExperimentConfig.__dataclass_fields__}
_HASH_EXCLUDED = {"out_dir"}
# the keys that decide a config's offline artifacts: the problem's training
# fields, the case thresholds, the solver and the bond cap
OFFLINE_KEYS = ("problem", "nx", "ny", "case", "reynolds", "window", "period",
                "transient_seed", "target_index", "solver_tol", "max_iters", "chi_cap")


def _is_int(v, low=0) -> bool:
    """v is an integer of at least low, and not a bool."""
    return isinstance(v, int) and not isinstance(v, bool) and v >= low


def _is_number(v) -> bool:
    """A finite real number (json.loads accepts NaN and Infinity)."""
    return isinstance(v, numbers.Real) and not isinstance(v, bool) and math.isfinite(v)


def _is_pow2(k) -> bool:
    return _is_int(k, 1) and (k & (k - 1)) == 0


def _ints(values, low=0) -> bool:
    """values is a nonempty list of integers of at least low."""
    return bool(values) and all(_is_int(v, low) for v in values)


_PATH = (lambda v: isinstance(v, str) and v != "", "a path")
# key -> (accepts its value, what the value must be): keys every problem
# reads, then those only a transient or an ingested problem reads
_CHECKS = {
    "case": (lambda v: isinstance(v, str) and v in CASE_THRESHOLDS,
             f"one of {list(CASE_THRESHOLDS)}"),
    "methods": (lambda v: bool(v) and all(m in METHODS for m in v),
                f"a nonempty subset of {list(METHODS)}"),
    "shot_grid": (lambda v: _ints(v, 1), "a nonempty list of positive integers"),
    "seeds": (_ints, "a nonempty list of nonnegative integers"),
    "out_dir": _PATH,
    "beta": (lambda v: _is_number(v) and v >= 2.0, "a number of at least 2"),
    "chi_cap": (_is_pow2, "a power of two"),
    "solver_tol": (lambda v: _is_number(v) and v > 0, "a positive number"),
    "max_iters": (_is_int, "a nonnegative integer"),
    "fsr_cutoff": (lambda v: _is_number(v) and 0.0 < v < 1.0, "a number in (0, 1)"),
    "sign_oracle": (lambda v: isinstance(v, bool), "true or false"),
    "param_sweep": (lambda v: v is None or bool(v), "a nonempty list"),
}
_TRANSIENT_CHECKS = {
    "window": (lambda w: _ints(w) and len(w) == 2 and w[0] <= w[1],
               "[first_step, last_step], nonnegative integers in order"),
    "period": (lambda v: _is_int(v, 2), "an integer of at least 2"),
    "transient_seed": (_is_int, "a nonnegative integer"),
    "target_step": (_is_int, "a nonnegative integer"),
    "param_sweep": (lambda v: v is None or all(map(_is_int, v)),
                    "a list of nonnegative integers"),
}
_INGESTED_CHECKS = {
    "snapshot_ux": _PATH,
    "snapshot_uy": _PATH,
    "target_index": (_is_int, "a nonnegative integer"),
}


def _check(cfg: ExperimentConfig, checks: dict) -> None:
    """A ConfigError naming the first key whose value checks refuses, and the value."""
    for key, (accepts, what) in checks.items():
        value = getattr(cfg, key)
        if not accepts(value):
            shown = list(value) if isinstance(value, tuple) else value
            raise ConfigError(f"{key} must be {what}, got {shown!r}")


def _check_reynolds_values(key: str, values) -> None:
    """Each of a cavity key's Reynolds numbers lies in the solver's range."""
    for re in values:
        if not _is_number(re):
            raise ConfigError(f"{key}: reynolds {re!r} is not a number")
        try:
            _check_reynolds(re)
        except FieldError as exc:
            raise ConfigError(f"{key}: {exc}") from exc


def validate_config(cfg: ExperimentConfig) -> ExperimentConfig:
    """cfg, unless a value has the wrong type or range or a list value repeats
    (never converted, so a valid config keeps its hash)."""
    if cfg.problem not in ("cavity", "transient", "ingested"):
        raise ConfigError(f"unknown problem {cfg.problem!r}")
    if not (_is_pow2(cfg.nx) and _is_pow2(cfg.ny)) or cfg.nx < 16 or cfg.ny < 16:
        raise ConfigError(f"grid {cfg.nx}x{cfg.ny} must be powers of two, at least 16")
    _check(cfg, _CHECKS)
    for key in ("methods", "shot_grid", "seeds", "reynolds", "param_sweep", "grid_sizes"):
        values = getattr(cfg, key) or ()  # compared by ==, so unhashable values are fine
        if any(v in values[:i] for i, v in enumerate(values)):
            raise ConfigError(f"{key} repeats a value: {list(values)!r}")
    max_bond = 2 ** ((cfg.grid_points.bit_length() - 1) // 2)
    if cfg.chi_cap > max_bond:
        raise ConfigError(f"chi_cap {cfg.chi_cap} exceeds {max_bond}, the maximal cut "
                          f"bond of a {cfg.nx}x{cfg.ny} grid")

    if cfg.problem == "cavity":
        if not cfg.reynolds:
            raise ConfigError("cavity runs need a reynolds ensemble")
        if cfg.target_reynolds is None:
            raise ConfigError("cavity runs need target_reynolds")
        if cfg.target_reynolds in cfg.reynolds:
            raise ConfigError(
                f"target Re {cfg.target_reynolds} must stay out of the ensemble"
            )
        _check_reynolds_values("reynolds", cfg.reynolds)
        _check_reynolds_values("target_reynolds", (cfg.target_reynolds,))
        _check_reynolds_values("param_sweep", cfg.param_sweep or ())
    elif cfg.problem == "transient":
        _check(cfg, _TRANSIENT_CHECKS)
        if cfg.window[0] <= cfg.target_step <= cfg.window[1]:
            raise ConfigError(
                f"target step {cfg.target_step} must stay out of the window"
            )
    else:
        _check(cfg, _INGESTED_CHECKS)
    return cfg


def config_from_dict(doc: dict) -> ExperimentConfig:
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object")
    unknown = set(doc) - _FIELD_NAMES
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    kwargs = dict(doc)
    for key in ("methods", "shot_grid", "seeds", "reynolds", "window",
                "param_sweep", "grid_sizes"):
        value = kwargs.get(key)
        if value is None:
            continue
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{key} must be a list, got {value!r}")
        kwargs[key] = tuple(value)
    try:
        cfg = ExperimentConfig(**kwargs)
    except TypeError as exc:
        raise ConfigError(f"bad config value: {exc}") from exc
    return validate_config(cfg)


def load_config(path) -> ExperimentConfig:
    try:
        doc = json.loads(Path(path).read_text())
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return config_from_dict(doc)


def _digest(doc: dict) -> str:
    canon = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def config_hash(cfg: ExperimentConfig) -> str:
    """16-hex-digit digest over the result-determining fields."""
    doc = asdict(cfg)
    for key in _HASH_EXCLUDED:
        doc.pop(key, None)
    return _digest(doc)


def offline_hash(cfg: ExperimentConfig, snapshot_digests: dict | None) -> str:
    """16-hex-digit digest over OFFLINE_KEYS and the sha256 of each ingested
    snapshot file (None for the built-in problems)."""
    doc = {key: getattr(cfg, key) for key in OFFLINE_KEYS}
    doc["snapshot_sha256"] = snapshot_digests
    return _digest(doc)
