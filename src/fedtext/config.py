"""Experiment configuration: flat key=value sections, validation, hashing.

Config files use INI-style sections ([experiment], [data], [model],
[federation]) of flat key=value pairs.  The frozen dataclasses below are the
one schema: keys, types and defaults come from their fields, and each
``__post_init__`` checks its ranges.  Parsing is strict: unknown keys, bad
values and inconsistent scheme/mu combinations are rejected naming the field.
The config hash covers every field except the output directory and is stable
across machines.
"""
from __future__ import annotations

import configparser
import hashlib
import json
import math
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import get_type_hints

from .models import MODEL_KINDS
from .optim import OPTIMIZER_KINDS

SCHEMES = ("centralized", "single", "fedavg", "fedprox")
PARTITION_MODES = ("iid", "by_source")
DEFAULT_MU_GRID = (1.0, 0.5, 0.1, 0.01, 0.001)


class ConfigError(ValueError):
    """Raised for malformed or inconsistent experiment configs."""


def _check(section: str, rules: tuple[tuple[bool, str], ...]) -> None:
    for ok, message in rules:
        if not ok:
            raise ConfigError(f"[{section}] {message}")


@dataclass(frozen=True)
class DataConfig:
    # file-backed corpora (one path per source) or a synthetic profile
    files: tuple[str, ...] = ()
    synthetic: bool = False
    types: tuple[str, ...] = ("GENE", "DIS")
    lexicon_size: int = 50
    sentences: tuple[int, ...] = (500,)
    sources: int = 1
    heterogeneity: float = 0.0
    cue_rate: float = 0.5
    data_seed: int = 13
    partition: str = "iid"
    max_tokens: int = 512

    def __post_init__(self) -> None:
        _check("data", (
            (bool(self.types) and all(self.types), "types must be non-empty names"),
            (self.lexicon_size >= 1, "lexicon_size must be >= 1"),
            (bool(self.sentences) and min(self.sentences) >= 1, "sentences must be counts >= 1"),
            (self.sources >= 1, "sources must be >= 1"),
            (0 <= self.heterogeneity <= 1, "heterogeneity must lie in [0, 1]"),
            (0 <= self.cue_rate <= 1, "cue_rate must lie in [0, 1]"),
            (self.partition in PARTITION_MODES, f"partition must be one of {PARTITION_MODES}"),
            (self.max_tokens >= 1, "max_tokens must be >= 1"),
        ))


@dataclass(frozen=True)
class ModelConfig:
    kind: str = "rnn_crf_tagger"
    embed_dim: int = 16
    hidden_dim: int = 24
    window_radius: int = 0

    def __post_init__(self) -> None:
        _check("model", (
            (self.kind in MODEL_KINDS, f"kind must be one of {MODEL_KINDS}, got {self.kind!r}"),
            (self.embed_dim >= 1, "embed_dim must be >= 1"),
            (self.hidden_dim >= 1, "hidden_dim must be >= 1"),
            (self.window_radius >= 0, "window_radius must be >= 0"),
        ))


@dataclass(frozen=True)
class FederationConfig:
    """The [federation] section, which the round loop also runs from."""

    clients: int = 2
    rounds: int = 5
    local_epochs: int = 1
    batch_size: int = 16
    mu: float = 0.0
    optimizer: str = "adam"
    base_lr: float = 1e-3
    warmup_frac: float = 0.1

    def __post_init__(self) -> None:
        _check("federation", (
            (self.clients >= 1, "clients must be >= 1"),
            (self.rounds >= 1, "rounds must be >= 1"),
            (self.local_epochs >= 1, "local_epochs must be >= 1"),
            (self.batch_size >= 1, "batch_size must be >= 1"),
            (0 <= self.mu < math.inf, "mu must be finite and >= 0"),
            (self.optimizer in OPTIMIZER_KINDS, f"optimizer must be one of {OPTIMIZER_KINDS}"),
            (0 < self.base_lr < math.inf, "base_lr must be finite and positive"),
            (0 <= self.warmup_frac < 1, "warmup_frac must lie in [0, 1)"),
        ))


@dataclass(frozen=True)
class ExperimentConfig:
    task: str = "ner"
    scheme: str = "fedavg"
    repeats: int = 3
    base_seed: int = 0
    output_dir: str = "runs/out"
    data: DataConfig = field(default_factory=DataConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    federation: FederationConfig = field(default_factory=FederationConfig)

    def __post_init__(self) -> None:
        _check("experiment", (
            (self.task in ("ner", "re"), f"task must be ner or re, got {self.task!r}"),
            (self.scheme in SCHEMES, f"scheme must be one of {SCHEMES}, got {self.scheme!r}"),
            (self.repeats >= 1, "repeats must be >= 1"),
        ))


# [experiment] is ExperimentConfig's own fields; the other sections are the
# fields of ExperimentConfig that carry their names
_SECTIONS = {
    "experiment": ExperimentConfig,
    "data": DataConfig,
    "model": ModelConfig,
    "federation": FederationConfig,
}


def _parse_bool(raw: str) -> bool:
    if raw.lower() not in ("true", "false", "0", "1", "yes", "no"):
        raise ValueError("expected a boolean")
    return raw.lower() in ("true", "1", "yes")


# value parser per field annotation; blank list items are dropped from names
# but not from counts, where they are an error
_PARSERS = {
    int: int,
    float: float,
    str: str,
    bool: _parse_bool,
    tuple[str, ...]: lambda raw: tuple(part.strip() for part in raw.split(",") if part.strip()),
    tuple[int, ...]: lambda raw: tuple(int(part) for part in raw.split(",")),
}

# section -> key -> value parser: every key a config file may set
_KEYS = {
    section: {
        name: _PARSERS[hint]
        for name, hint in get_type_hints(cls).items()
        if name not in _SECTIONS
    }
    for section, cls in _SECTIONS.items()
}


def parse_config(text: str) -> ExperimentConfig:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config syntax: {exc}") from None

    values: dict[str, dict] = {name: {} for name in _SECTIONS}
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown section [{section}]")
        for key, raw in parser.items(section):
            if key not in _KEYS[section]:
                raise ConfigError(f"unknown key {key!r} in [{section}]")
            try:
                values[section][key] = _KEYS[section][key](raw.strip())
            except ValueError as exc:
                raise ConfigError(f"[{section}] {key}: {exc}") from None

    sections = {name: cls(**values[name]) for name, cls in _SECTIONS.items() if name != "experiment"}
    cfg = ExperimentConfig(**values["experiment"], **sections)
    validate_config(cfg)
    return cfg


def load_config(path: str | Path) -> ExperimentConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    return parse_config(text)


def validate_config(cfg: ExperimentConfig) -> None:
    """Rules that span fields or sections; each section's own ranges are
    checked when its dataclass is built."""
    if cfg.scheme == "fedprox" and cfg.federation.mu <= 0:
        raise ConfigError("[federation] fedprox requires mu > 0")
    if cfg.scheme == "fedavg" and cfg.federation.mu != 0:
        raise ConfigError("[federation] fedavg runs with mu = 0; use scheme = fedprox for mu > 0")
    if cfg.scheme in ("centralized", "single") and cfg.federation.mu != 0:
        raise ConfigError(f"[federation] {cfg.scheme} training has no proximal term; set mu = 0")
    if cfg.data.synthetic:
        if len(cfg.data.sentences) not in (1, cfg.data.sources):
            raise ConfigError("[data] sentences must be one count or one per source")
        if cfg.task == "re" and cfg.data.lexicon_size < 2:
            raise ConfigError("[data] lexicon_size must be >= 2 for synthetic relations (task = re)")
    elif not cfg.data.files:
        raise ConfigError("[data] either files or synthetic = true is required")
    if cfg.data.partition == "by_source":
        n_src = len(cfg.data.files) if cfg.data.files else cfg.data.sources
        if n_src < 2:
            raise ConfigError("[data] by_source partitioning needs at least two sources")
        if cfg.scheme in ("fedavg", "fedprox") and cfg.federation.clients != n_src:
            raise ConfigError("[federation] clients must equal the number of sources for by_source")
    if cfg.task == "re" and cfg.model.kind != "relation_classifier":
        raise ConfigError("[model] task = re requires kind = relation_classifier")
    if cfg.task == "ner" and cfg.model.kind == "relation_classifier":
        raise ConfigError("[model] task = ner requires a tagger model kind")


def config_hash(cfg: ExperimentConfig) -> str:
    """SHA-256 over the canonical config with the output path masked out."""
    payload = asdict(cfg)
    payload["output_dir"] = ""
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


@dataclass
class RunManifest:
    """Everything needed to trace one cmd-run invocation; wall times live
    here so the metric files themselves stay byte-stable."""

    config_hash: str
    seeds: list[int]
    package_version: str
    scheme: str
    task: str
    repeat_files: list[str]
    summary_file: str
    wall_times: list[float]
    created_unix: float = field(default_factory=time.time)

    @classmethod
    def load(cls, path: str | Path) -> "RunManifest":
        data = json.loads(Path(path).read_text())
        return cls(**data)
