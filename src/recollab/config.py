"""Run configuration: a single YAML file, env overrides, and hashing.

Every knob with a published default carries that default here, so a
minimal config reproduces the reference settings. Unknown keys are
rejected rather than ignored; a typo should fail loudly.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass, field, fields
from functools import cache
from pathlib import Path
from typing import Any, Mapping, get_args, get_type_hints

import yaml

from .backends import ROLES
from .crs import CrsParams
from .datamodel import Split
from .sfa import SfaParams

PIPELINES = ("specialist", "mllm", "sfa", "crs")
SPLITS = tuple(split.value for split in Split)

ENV_PREFIX = "RECOLLAB"


class ConfigError(Exception):
    """Bad or missing configuration; callers map this to exit code 2."""


@dataclass(frozen=True)
class BackendSettings:
    """One model role's transport, limits, and cost accounting."""

    kind: str
    endpoint: str | None = None
    fixtures: str | None = None
    token: str | None = None
    timeout: float = 60.0
    retries: int = 2
    backoff: float = 0.5
    concurrency: int = 8
    coordinate_space: int | None = None
    cost_unit: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("http", "replay"):
            raise ConfigError(f"backend kind must be http or replay, got {self.kind!r}")
        if self.kind == "http" and not self.endpoint:
            raise ConfigError("http backend needs an endpoint")
        if self.kind == "replay" and not self.fixtures:
            raise ConfigError("replay backend needs a fixtures directory")
        if self.timeout <= 0:
            raise ConfigError(f"timeout must be positive, got {self.timeout}")
        if self.retries < 0:
            raise ConfigError(f"retries must be >= 0, got {self.retries}")
        if self.backoff < 0:
            raise ConfigError(f"backoff must be >= 0, got {self.backoff}")
        if self.concurrency < 1:
            raise ConfigError(f"concurrency must be >= 1, got {self.concurrency}")
        if self.coordinate_space is not None and self.coordinate_space <= 0:
            raise ConfigError(f"coordinate_space must be positive, got {self.coordinate_space}")
        if self.kind == "replay" and self.coordinate_space is not None:
            raise ConfigError(
                "coordinate_space applies to http backends only; replay fixtures are in pixels"
            )
        if self.cost_unit < 0:
            raise ConfigError(f"cost_unit must be >= 0, got {self.cost_unit}")


@dataclass(frozen=True)
class TuningSettings:
    positives: int = 10000
    negatives: int = 2500
    output: str = "tuning.jsonl"
    include_none: bool = True

    def __post_init__(self) -> None:
        if self.positives < 0 or self.negatives < 0:
            raise ConfigError("tuning sample counts must be >= 0")
        if self.negatives > 0 and not self.include_none:
            raise ConfigError("negative tuning samples require include_none")


@dataclass(frozen=True)
class MetricsSettings:
    ks: tuple[int, ...] = (1, 5)

    def __post_init__(self) -> None:
        object.__setattr__(self, "ks", tuple(int(k) for k in self.ks))
        if not self.ks or any(k < 1 for k in self.ks):
            raise ConfigError(f"metric ks must all be >= 1, got {list(self.ks)}")


@dataclass(frozen=True)
class RunConfig:
    """Everything a run needs; paths stay as written in the file.

    ``base_dir`` (the config file's directory) resolves relative paths at
    use time and is excluded from the config hash, so moving a config
    does not change its identity.
    """

    pipeline: str = "sfa"
    seed: int = 0
    output_dir: str = "out"
    datasets: Mapping[str, str] = field(default_factory=dict)
    backends: Mapping[str, BackendSettings] = field(default_factory=dict)
    sfa: SfaParams = field(default_factory=SfaParams)
    crs: CrsParams = field(default_factory=CrsParams)
    tuning: TuningSettings = field(default_factory=TuningSettings)
    metrics: MetricsSettings = field(default_factory=MetricsSettings)
    expected_counts: Mapping[str, Mapping[str, int]] = field(default_factory=dict)
    base_dir: Path = field(default_factory=Path, compare=False)

    def __post_init__(self) -> None:
        if self.pipeline not in PIPELINES:
            raise ConfigError(
                f"pipeline must be one of {', '.join(PIPELINES)}, got {self.pipeline!r}"
            )
        for split in self.datasets:
            if split not in SPLITS:
                raise ConfigError(f"unknown dataset split {split!r}")
        for role, settings in self.backends.items():
            if role not in ROLES:
                raise ConfigError(f"unknown backend role {role!r}")
            if settings.coordinate_space is not None and not ROLES[role].boxes:
                raise ConfigError(
                    f"backends.{role}: coordinate_space applies to box-returning roles"
                )
        for split in self.expected_counts:
            if split not in SPLITS:
                raise ConfigError(f"expected_counts for unknown split {split!r}")

    def resolve(self, path: str) -> Path:
        p = Path(path)
        return p if p.is_absolute() else self.base_dir / p

    def dataset_path(self, split: str) -> Path:
        if split not in self.datasets:
            raise ConfigError(f"no dataset configured for split {split!r}")
        return self.resolve(self.datasets[split])

    def check_paths(self) -> None:
        """Referenced datasets and fixture directories must exist."""
        for split in self.datasets:
            path = self.dataset_path(split)
            if not path.is_file():
                raise ConfigError(f"dataset file for split {split!r} not found: {path}")
        for role, settings in self.backends.items():
            if settings.kind == "replay":
                assert settings.fixtures is not None
                fixture_dir = self.resolve(settings.fixtures)
                if not fixture_dir.is_dir():
                    raise ConfigError(
                        f"fixture directory for role {role!r} not found: {fixture_dir}"
                    )


def _check_keys(data: Mapping[str, Any], allowed: tuple[str, ...], where: str) -> None:
    unknown = sorted(set(data) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(unknown)}")


# what a scalar setting of each declared type accepts; no number setting takes a bool
_SCALARS: Mapping[Any, tuple[tuple[type, ...], str]] = {
    str: ((str,), "a string"),
    bool: ((bool,), "true or false"),
    int: ((int,), "an integer"),
    float: ((int, float), "a number"),
}
# a settings class's field types are resolved once
_type_hints = cache(get_type_hints)


def _check_types(cls: type, data: Mapping[str, Any], where: str) -> None:
    """Refuse a scalar setting whose value is not of its field's declared type."""
    hints = _type_hints(cls)
    for name, value in data.items():
        hint = hints[name]
        if type(None) in get_args(hint):
            if value is None:
                continue
            (hint,) = (arg for arg in get_args(hint) if arg is not type(None))
        if hint not in _SCALARS:
            continue
        accepted, described = _SCALARS[hint]
        if not isinstance(value, accepted) or (isinstance(value, bool) and hint is not bool):
            raise ConfigError(f"{name} in {where} must be {described}, got {value!r}")


def _dataclass_from(cls: type, data: Mapping[str, Any], where: str):
    if not isinstance(data, Mapping):
        raise ConfigError(f"{where} must be a mapping")
    names = tuple(f.name for f in fields(cls))
    _check_keys(data, names, where)
    _check_types(cls, data, where)
    try:
        return cls(**data)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {where}: {exc}") from exc


def _env_override(role: str, key: str) -> str | None:
    return os.environ.get(f"{ENV_PREFIX}_{role.upper()}_{key.upper()}")


def _backend_from(role: str, data: Mapping[str, Any]) -> BackendSettings:
    if not isinstance(data, Mapping):
        raise ConfigError(f"backends.{role} must be a mapping")
    merged = dict(data)
    endpoint = _env_override(role, "endpoint")
    if endpoint:
        merged["endpoint"] = endpoint
    token = _env_override(role, "token")
    if token:
        merged["token"] = token
    return _dataclass_from(BackendSettings, merged, f"backends.{role}")


def config_from_dict(data: Mapping[str, Any], base_dir: str | Path = ".") -> RunConfig:
    if not isinstance(data, Mapping):
        raise ConfigError("config root must be a mapping")
    keys = tuple(f.name for f in fields(RunConfig) if f.name != "base_dir")
    _check_keys(data, keys, "config")
    _check_types(RunConfig, data, "config")

    sfa_params = _dataclass_from(SfaParams, data.get("sfa", {}), "sfa")
    crs_params = _dataclass_from(CrsParams, data.get("crs", {}), "crs")

    backends_data = data.get("backends", {})
    if not isinstance(backends_data, Mapping):
        raise ConfigError("backends must be a mapping")
    backends = {role: _backend_from(role, entry) for role, entry in backends_data.items()}

    datasets = data.get("datasets", {})
    if not isinstance(datasets, Mapping) or not all(
        isinstance(v, str) for v in datasets.values()
    ):
        raise ConfigError("datasets must map split names to file paths")
    expected_counts = data.get("expected_counts", {})
    if not isinstance(expected_counts, Mapping) or not all(
        isinstance(counts, Mapping)
        and all(isinstance(n, int) and not isinstance(n, bool) for n in counts.values())
        for counts in expected_counts.values()
    ):
        raise ConfigError("expected_counts must map split names to mappings of integer counts")

    return RunConfig(
        pipeline=data.get("pipeline", "sfa"),
        seed=data.get("seed", 0),
        output_dir=data.get("output_dir", "out"),
        datasets=dict(datasets),
        backends=backends,
        sfa=sfa_params,
        crs=crs_params,
        tuning=_dataclass_from(TuningSettings, data.get("tuning", {}), "tuning"),
        metrics=_dataclass_from(MetricsSettings, data.get("metrics", {}), "metrics"),
        expected_counts={split: dict(counts) for split, counts in expected_counts.items()},
        base_dir=Path(base_dir),
    )


def load_config(path: str | Path) -> RunConfig:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        data = yaml.safe_load(path.read_text(encoding="utf-8"))
    except yaml.YAMLError as exc:
        raise ConfigError(f"config is not valid YAML: {exc}") from exc
    if data is None:
        data = {}
    return config_from_dict(data, base_dir=path.parent)


def config_to_dict(cfg: RunConfig) -> dict[str, Any]:
    """Every setting but ``base_dir``; secret values never leave as-is."""
    data = asdict(cfg)
    del data["base_dir"]
    for entry in data["backends"].values():
        if entry["token"]:
            entry["token"] = "***"
    return data


def _digest(data: Mapping[str, Any]) -> str:
    canon = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def config_hash(cfg: RunConfig) -> str:
    """Stable identity of the run's effective settings (secrets redacted)."""
    return _digest(config_to_dict(cfg))


def identity_hash(cfg: RunConfig) -> str:
    """Stable identity of the settings a run's predictions depend on.

    It covers the pipeline, seed, datasets, the sfa and crs parameters and,
    per backend, its kind, its endpoint or fixtures and its coordinate
    space. The output directory, scheduling and retry knobs, cost units,
    tuning and metric settings are left out: a log stays resumable and
    reportable when only those change.
    """
    backends = {
        role: {
            "kind": s.kind,
            "source": s.endpoint if s.kind == "http" else s.fixtures,
            "coordinate_space": s.coordinate_space,
        }
        for role, s in cfg.backends.items()
    }
    return _digest(
        {
            "pipeline": cfg.pipeline,
            "seed": cfg.seed,
            "datasets": dict(cfg.datasets),
            "backends": backends,
            "sfa": asdict(cfg.sfa),
            "crs": asdict(cfg.crs),
        }
    )
