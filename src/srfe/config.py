"""Run configuration: defaults, config-file loading, flag overrides.

RunConfig extends the extraction parameters (`FeatureParams`) with paths,
ingest, split, training and worker settings, so each spectral field and its
default is declared once and a RunConfig goes straight to the extractor.

Precedence is flags over config file over built-in defaults.  The config
file is a flat JSON object whose keys are exactly the RunConfig field
names; unknown keys are rejected so typos fail loudly.
"""

from __future__ import annotations

import dataclasses
import json
import os
from dataclasses import dataclass

from .features.pipeline import FeatureParams


@dataclass(frozen=True)
class RunConfig(FeatureParams):
    # What to extract / train on.
    feature: str = "mel"
    # Paths.
    audio_dir: str = "audio"
    manifest: str = "meta/esc50.csv"
    feature_dir: str = "features"
    split_file: str = "split.json"
    checkpoint: str = "model.srnn"
    history_file: str = "history.csv"
    report_dir: str = "reports"
    # Ingest (the pipeline rate, sample_rate, comes from FeatureParams).
    clip_seconds: float = 5.0
    # Split.
    train_fraction: float = 0.8
    # Training.
    n_classes: int = 50
    batch_size: int = 32
    initial_lr: float = 0.001
    epochs: int = 50
    lr_reduce_factor: float = 0.1
    lr_patience: int = 2
    early_stop_patience: int = 6
    # Misc.
    seed: int = 0
    workers: int = 0  # 0 -> one per logical core

    @property
    def clip_samples(self) -> int:
        return int(round(self.clip_seconds * self.sample_rate))

    def effective_workers(self) -> int:
        return self.workers if self.workers > 0 else (os.cpu_count() or 1)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def field_names(cls) -> set:
        return {f.name for f in dataclasses.fields(cls)}

    @classmethod
    def from_dict(cls, values: dict) -> "RunConfig":
        unknown = set(values) - cls.field_names()
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**values)

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))

    def with_overrides(self, **overrides) -> "RunConfig":
        overrides = {k: v for k, v in overrides.items() if v is not None}
        unknown = set(overrides) - self.field_names()
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return dataclasses.replace(self, **overrides)

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2)
            fh.write("\n")
