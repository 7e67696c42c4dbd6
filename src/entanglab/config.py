"""Experiment configuration: JSON schema, validation, canonical digest."""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import dataclass, field

__all__ = ["ConfigError", "ExperimentConfig"]

_COMMON_KEYS = {"experiment", "trials", "master_seed", "output", "tolerances"}
_TOLERANCE_KEYS = {"gauge_tol"}


class ConfigError(ValueError):
    """Invalid experiment configuration; message carries the offending key."""


def _is_int(v) -> bool:
    """An integer that is not a bool (JSON true/false load as bools)."""
    return isinstance(v, int) and not isinstance(v, bool)


def _require_int(raw: dict, key: str, minimum: int, default: int | None = None) -> int:
    if key not in raw:
        if default is not None:
            return default
        raise ConfigError(f"missing required key '{key}'")
    v = raw[key]
    if not _is_int(v):
        raise ConfigError(f"'{key}' must be an integer, got {v!r}")
    if v < minimum:
        raise ConfigError(f"'{key}' must be >= {minimum}, got {v}")
    return v


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    trials: int
    master_seed: int
    output: str | None = None
    dims: tuple[int, int] | None = None
    s_values: tuple[int, ...] | None = None
    criterion: str | None = None
    ensemble: str | None = None
    n: int | None = None
    s: int | None = None
    body: str | None = None
    mode: str | None = None
    d: int | None = None
    d1: int | None = None
    d2: int | None = None
    gauge_tol: float = 1e-8
    raw: dict = field(default_factory=dict, compare=False)

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        from .experiments import EXPERIMENTS

        experiment = raw.get("experiment")
        if not isinstance(experiment, str) or experiment not in EXPERIMENTS:
            raise ConfigError(
                f"'experiment' must be one of {sorted(EXPERIMENTS)}, got {experiment!r}"
            )
        allowed = _COMMON_KEYS | EXPERIMENTS[experiment].keys
        unknown = set(raw) - allowed
        if unknown:
            raise ConfigError(
                f"unknown key(s) {sorted(unknown)} for experiment '{experiment}'"
            )

        trials = _require_int(raw, "trials", 1)
        master_seed = _require_int(raw, "master_seed", 0)
        output = raw.get("output")
        if output is not None and not isinstance(output, str):
            raise ConfigError("'output' must be a string path")

        tol = raw.get("tolerances", {})
        if not isinstance(tol, dict):
            raise ConfigError("'tolerances' must be an object")
        bad = set(tol) - _TOLERANCE_KEYS
        if bad:
            raise ConfigError(f"unknown tolerance key(s) {sorted(bad)}")
        gauge_tol = tol.get("gauge_tol", 1e-8)
        # compared exactly, so an int past the float range is refused, not overflowed
        if not (_is_int(gauge_tol) or isinstance(gauge_tol, float)) or not (
            0 < gauge_tol <= sys.float_info.max
        ):
            raise ConfigError(f"'gauge_tol' must be a finite positive number, got {gauge_tol!r}")

        kwargs = dict(
            experiment=experiment,
            trials=trials,
            master_seed=master_seed,
            output=output,
            gauge_tol=float(gauge_tol),
            raw=dict(raw),
        )
        try:
            EXPERIMENTS[experiment].check(raw, kwargs)
        except ValueError as exc:  # also the library rules a validator reuses
            raise ConfigError(str(exc)) from exc
        return cls(**kwargs)

    @classmethod
    def from_file(cls, path: str) -> "ExperimentConfig":
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(
                f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}"
            ) from exc
        try:
            return cls.from_dict(raw)
        except ConfigError as exc:
            raise ConfigError(f"{path}: {exc}") from exc

    def digest(self) -> str:
        """sha256 of the canonical JSON form; identifies the run."""
        canon = json.dumps(self.raw, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()
