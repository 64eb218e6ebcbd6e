"""Experiment configuration: one JSON document, strictly validated.

The config hash covers every field that can influence numbers; out_dir is an
execution detail and stays out of it, which is what lets a rerun into a
fresh directory reproduce byte-identical CSV output.
"""

from __future__ import annotations

import hashlib
import json
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
    lid_speed: float = 1.0
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


def _is_pow2(k: int) -> bool:
    return isinstance(k, int) and k >= 1 and (k & (k - 1)) == 0


def _check_reynolds_values(key: str, values) -> None:
    """Each of a cavity key's Reynolds numbers lies in the solver's range."""
    for re in values:
        if isinstance(re, bool) or not isinstance(re, numbers.Real):
            raise ConfigError(f"{key}: reynolds {re!r} is not a number")
        try:
            _check_reynolds(re)
        except FieldError as exc:
            raise ConfigError(f"{key}: {exc}") from exc


def validate_config(cfg: ExperimentConfig) -> ExperimentConfig:
    if cfg.problem not in ("cavity", "transient", "ingested"):
        raise ConfigError(f"unknown problem {cfg.problem!r}")
    if not (_is_pow2(cfg.nx) and _is_pow2(cfg.ny)) or cfg.nx < 16 or cfg.ny < 16:
        raise ConfigError(f"grid {cfg.nx}x{cfg.ny} must be powers of two, at least 16")
    if cfg.case not in CASE_THRESHOLDS:
        raise ConfigError(f"unknown case {cfg.case!r}")
    if not cfg.methods or any(m not in METHODS for m in cfg.methods):
        raise ConfigError(f"methods must be a nonempty subset of {METHODS}")
    if not cfg.shot_grid or any(
        isinstance(s, bool) or not isinstance(s, int) or s < 1 for s in cfg.shot_grid
    ):
        raise ConfigError("shot_grid must be a nonempty list of positive integers")
    if not cfg.seeds or any(
        isinstance(s, bool) or not isinstance(s, int) or s < 0 for s in cfg.seeds
    ):
        raise ConfigError("seeds must be a nonempty list of nonnegative integers")
    if cfg.beta < 2.0:
        raise ConfigError("beta must be at least 2")
    if not _is_pow2(cfg.chi_cap):
        raise ConfigError(f"chi_cap {cfg.chi_cap} is not a power of two")
    if cfg.solver_tol <= 0:
        raise ConfigError("solver_tol must be positive")
    if not (0.0 < cfg.fsr_cutoff < 1.0):
        raise ConfigError("fsr_cutoff must lie in (0, 1)")

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
        if cfg.window is None or len(cfg.window) != 2 or cfg.window[0] > cfg.window[1]:
            raise ConfigError("transient runs need window = [first_step, last_step]")
        if cfg.period < 2:
            raise ConfigError("period must be at least 2")
        if cfg.target_step is None:
            raise ConfigError("transient runs need target_step")
        if cfg.window[0] <= cfg.target_step <= cfg.window[1]:
            raise ConfigError(
                f"target step {cfg.target_step} must stay out of the window"
            )
    else:
        if not cfg.snapshot_ux or not cfg.snapshot_uy:
            raise ConfigError("ingested runs need snapshot_ux and snapshot_uy paths")
        if cfg.target_index is None or cfg.target_index < 0:
            raise ConfigError("ingested runs need a nonnegative target_index")
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


def config_hash(cfg: ExperimentConfig) -> str:
    """16-hex-digit digest over the result-determining fields."""
    doc = asdict(cfg)
    for key in _HASH_EXCLUDED:
        doc.pop(key, None)
    canon = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]
