"""Run configuration: a single YAML file, env overrides, and hashing.

Every knob with a published default carries that default here, so a
minimal config reproduces the reference settings. The file is read by
one walk over the declared types of these dataclasses: an unknown key or
a value of another type is refused rather than ignored or coerced, so a
typo fails loudly.
"""

from __future__ import annotations

import hashlib
import json
import os
from collections.abc import Iterable, Mapping
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass
from functools import cache
from pathlib import Path
from typing import Any, get_args, get_origin, get_type_hints

import yaml

from .backends import ROLES
from .backends.http import split_endpoint
from .crs import CrsParams, TuningParams
from .datamodel import COUNT_KEYS, Split
from .metrics import DEFAULT_KS
from .sfa import SfaParams

PIPELINES = ("specialist", "mllm", "sfa", "crs")
SPLITS = tuple(split.value for split in Split)

ENV_PREFIX = "RECOLLAB"

# libyaml's parser when PyYAML was built with it (about 5x faster on a config),
# else the pure-Python one; both build values with the same safe constructor
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


class ConfigError(Exception):
    """Bad or missing configuration; callers map this to exit code 2."""


@dataclass(frozen=True)
class BackendSettings:
    """One model role's transport, limits, and cost accounting."""

    kind: str
    endpoint: str | None = None
    fixtures: str | None = None
    token: str | None = field(default=None, repr=False)
    timeout: float = 60.0
    retries: int = 2
    backoff: float = 0.5
    concurrency: int = 8
    coordinate_space: int | None = None
    cost_unit: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("http", "replay"):
            raise ConfigError(f"backend kind must be http or replay, got {self.kind!r}")
        if self.kind == "http":
            if not self.endpoint:
                raise ConfigError("http backend needs an endpoint")
            try:
                split_endpoint(self.endpoint)
            except ValueError as exc:
                raise ConfigError(str(exc)) from None
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
class MetricsSettings:
    ks: tuple[int, ...] = DEFAULT_KS

    def __post_init__(self) -> None:
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
    tuning: TuningParams = field(default_factory=TuningParams)
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
        for split, counts in self.expected_counts.items():
            if split not in SPLITS:
                raise ConfigError(f"expected_counts for unknown split {split!r}")
            unknown = sorted(counts.keys() - set(COUNT_KEYS))
            if unknown:
                raise ConfigError(
                    f"unknown count key(s) in expected_counts.{split}: {', '.join(unknown)} "
                    f"(known: {', '.join(COUNT_KEYS)})"
                )
            if split not in self.datasets:
                raise ConfigError(f"expected_counts.{split}: split {split!r} has no dataset")

    def resolve(self, path: str) -> Path:
        p = Path(path)
        return p if p.is_absolute() else self.base_dir / p

    def dataset_path(self, split: str) -> Path:
        if split not in self.datasets:
            raise ConfigError(f"no dataset configured for split {split!r}")
        return self.resolve(self.datasets[split])

    def check_paths(
        self, splits: Iterable[str] | None = None, roles: Iterable[str] | None = None
    ) -> None:
        """The datasets of ``splits`` and fixture directories of replay ``roles``
        must exist, all configured ones when not named; the output directory,
        or its nearest existing ancestor, must be a directory."""
        out_dir = self.resolve(self.output_dir)
        if not out_dir.is_dir():
            existing = next(p for p in (out_dir, *out_dir.parents) if p.exists())
            if not existing.is_dir():
                raise ConfigError(f"cannot use output_dir {out_dir}: {existing} is not a directory")
        for split in self.datasets if splits is None else splits:
            path = self.dataset_path(split)
            if not path.is_file():
                raise ConfigError(f"dataset file for split {split!r} not found: {path}")
        for role in self.backends if roles is None else roles:
            settings = self.backends[role]
            if settings.kind == "replay":
                assert settings.fixtures is not None
                fixture_dir = self.resolve(settings.fixtures)
                if not fixture_dir.is_dir():
                    raise ConfigError(
                        f"fixture directory for role {role!r} not found: {fixture_dir}"
                    )


# what a setting of each declared kind accepts; no number setting takes a bool
_ACCEPTS: Mapping[Any, tuple[tuple[type, ...], str]] = {
    str: ((str,), "a string"),
    bool: ((bool,), "true or false"),
    int: ((int,), "an integer"),
    float: ((int, float), "a number"),
    Mapping: ((Mapping,), "a mapping"),
    tuple: ((list, tuple), "a list"),
}
# a settings class's field types are resolved once
_type_hints = cache(get_type_hints)


def _build(cls: type, data: Any, where: str, **given: Any) -> Any:
    """The settings dataclass ``cls`` from the mapping ``data`` of section ``where``.

    Each key must name a field of ``cls`` that ``given`` does not supply,
    and its value must have that field's declared type; a field whose key
    is absent takes its default, and one without a default is required.
    A refusal by ``cls`` itself is prefixed with the section.
    """
    if not isinstance(data, Mapping):
        raise ConfigError(f"{where} must be a mapping, got {data!r}")
    hints = _type_hints(cls)
    unknown = sorted(map(str, data.keys() - (hints.keys() - given.keys())))
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(unknown)}")
    for f in fields(cls):
        if f.default is MISSING and f.default_factory is MISSING and f.name not in data:
            raise ConfigError(f"{f.name} in {where} is required")
    values = {name: _value(hints[name], value, name, where) for name, value in data.items()}
    try:
        return cls(**values, **given)
    except (ValueError, ConfigError) as exc:
        raise ConfigError(f"bad {where}: {exc}") from exc


def _value(hint: Any, value: Any, name: str, where: str) -> Any:
    """``value`` as the declared type ``hint`` of setting ``name`` in section ``where``."""
    if type(None) in get_args(hint):
        if value is None:
            return None
        (hint,) = (arg for arg in get_args(hint) if arg is not type(None))
    path = name if where == "config" else f"{where}.{name}"
    if is_dataclass(hint):
        return _build(hint, value, path)
    kind = get_origin(hint) or hint
    accepted, described = _ACCEPTS[kind]
    if not isinstance(value, accepted) or (isinstance(value, bool) and kind is not bool):
        raise ConfigError(f"{name} in {where} must be {described}, got {value!r}")
    if kind is Mapping:
        key_hint, item_hint = get_args(hint)
        return {
            _value(key_hint, key, "a key", path): _value(item_hint, item, str(key), path)
            for key, item in value.items()
        }
    if kind is tuple:
        item_hint = get_args(hint)[0]
        return tuple(_value(item_hint, item, f"{name}[{i}]", where) for i, item in enumerate(value))
    return value


def _with_env_overrides(data: Any) -> Any:
    """``data`` with each backend's endpoint and token replaced where the environment sets them."""
    backends = data.get("backends") if isinstance(data, Mapping) else None
    if not isinstance(backends, Mapping):
        return data
    merged = dict(backends)
    for role in ROLES.keys() & merged.keys():
        for key in ("endpoint", "token"):
            value = os.environ.get(f"{ENV_PREFIX}_{role.upper()}_{key.upper()}")
            if value and isinstance(merged[role], Mapping):
                merged[role] = {**merged[role], key: value}
    return {**data, "backends": merged}


def config_from_dict(data: Any, base_dir: str | Path = ".") -> RunConfig:
    """The run config a YAML document describes; ``base_dir`` resolves its relative paths."""
    return _build(RunConfig, _with_env_overrides(data), "config", base_dir=Path(base_dir))


def load_config(path: str | Path) -> RunConfig:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        data = yaml.load(path.read_text(encoding="utf-8"), Loader=_YAML_LOADER)
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
