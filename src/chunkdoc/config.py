"""Declarative JSON configuration for the batch pipeline.

The chunking, embedder, aggregator and svm sections are the stage configs
themselves; `embedder.per_class` and `aggregator.seed`/`seeds` are the only
keys that are not stage hyperparameters. Unknown keys are rejected so typos
fail loudly; command-line flags override file values. The resolved
configuration is written into each run directory for provenance.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path

from .aggregator import AggregatorConfig
from .chunker import ChunkingConfig
from .corpus import DEFAULT_HEADER_LABELS, LabelSet
from .embedder import EmbedderConfig
from .errors import ConfigError
from .pipeline import PipelineSettings
from .svm import SVMConfig


@dataclass
class CorpusSection:
    root: str = ""
    labels: list[str] = field(default_factory=list)
    boilerplate_labels: list[str] = field(default_factory=lambda: sorted(DEFAULT_HEADER_LABELS))


@dataclass
class SplitSection:
    seed: int = 13


@dataclass
class PipelineConfig:
    corpus: CorpusSection = field(default_factory=CorpusSection)
    split: SplitSection = field(default_factory=SplitSection)
    chunking: ChunkingConfig = field(default_factory=ChunkingConfig)
    embedder: EmbedderConfig = field(default_factory=EmbedderConfig)
    aggregator: AggregatorConfig = field(default_factory=AggregatorConfig)
    svm: SVMConfig = field(default_factory=SVMConfig)
    classifier: str = "linear"  # linear | svm | both
    output_dir: str = "runs"
    run_name: str = "run"

    def label_set(self) -> LabelSet:
        return LabelSet(self.corpus.labels)

    def header_labels(self) -> frozenset[str]:
        return frozenset(self.corpus.boilerplate_labels)

    def sweep_seeds(self) -> list[int]:
        return list(self.aggregator.seeds) or [self.aggregator.seed]

    def settings(self) -> PipelineSettings:
        return PipelineSettings(embedder=self.embedder, aggregator=self.aggregator, svm=self.svm)

    def run_dir(self) -> Path:
        return Path(self.output_dir) / self.run_name

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"


def _build_section(cls, data, where: str):
    if not isinstance(data, dict):
        raise ConfigError(f"{where}: expected an object")
    known = {f.name for f in dataclasses.fields(cls)}
    unknown = sorted(set(data) - known)
    if unknown:
        raise ConfigError(f"{where}: unknown keys {unknown}")
    try:
        return cls(**data)
    except ValueError as exc:  # a stage config's own range check
        raise ConfigError(f"{where}: {exc}") from None


_SECTIONS = {f.name: f.default_factory for f in dataclasses.fields(PipelineConfig)
             if f.default_factory is not dataclasses.MISSING}
_SCALARS = {f.name for f in dataclasses.fields(PipelineConfig)} - set(_SECTIONS)


def parse_config(data: dict) -> PipelineConfig:
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    unknown = sorted(set(data) - set(_SECTIONS) - _SCALARS)
    if unknown:
        raise ConfigError(f"unknown top-level keys {unknown}")
    kwargs = {}
    for name, cls in _SECTIONS.items():
        if name in data:
            kwargs[name] = _build_section(cls, data[name], name)
    for name in _SCALARS:
        if name in data:
            kwargs[name] = data[name]
    config = PipelineConfig(**kwargs)
    validate_config(config)
    return config


def load_config(path) -> PipelineConfig:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return parse_config(data)


def validate_config(config: PipelineConfig) -> None:
    def positive(value, name):
        if value <= 0:
            raise ConfigError(f"{name} must be positive, got {value}")

    if config.classifier not in ("linear", "svm", "both"):
        raise ConfigError(f"classifier must be linear|svm|both, got {config.classifier!r}")
    if len(config.corpus.labels) < 2:
        raise ConfigError("corpus.labels needs at least 2 labels")
    e = config.embedder
    for name in ("dim", "window", "negative", "min_count", "per_class"):
        positive(getattr(e, name), f"embedder.{name}")
    for name in ("epochs", "infer_steps"):
        if getattr(e, name) < 0:
            raise ConfigError(f"embedder.{name} must be >= 0")
    positive(e.alpha, "embedder.alpha")
    a = config.aggregator
    for name in ("hidden_size", "batch_size", "epochs", "patience"):
        positive(getattr(a, name), f"aggregator.{name}")
    if a.learning_rate < 0:
        raise ConfigError("aggregator.learning_rate must be >= 0")
    if not 0.0 <= a.bn_momentum < 1.0:
        raise ConfigError("aggregator.bn_momentum must lie in [0, 1)")
    positive(a.bn_epsilon, "aggregator.bn_epsilon")
    positive(config.svm.max_passes, "svm.max_passes")
    if not config.run_name or "/" in config.run_name:
        raise ConfigError(f"run_name must be a plain directory name, got {config.run_name!r}")
