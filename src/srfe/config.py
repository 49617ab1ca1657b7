"""Run configuration: defaults, config-file loading, flag overrides.

RunConfig extends both parameter classes: the extraction parameters
(`FeatureParams`) and the training parameters (`TrainConfig`), adding paths,
ingest, split and worker settings.  Each field and its default is declared
once, and a RunConfig goes straight to the extractor and to `train()`.

Precedence is flags over config file over built-in defaults.  The config
file is a flat JSON object whose keys are exactly the RunConfig field
names; unknown keys are rejected so typos fail loudly, and so is a value of
the wrong type (an int field takes no float, string or bool; a float field
also takes an int).
"""

from __future__ import annotations

import dataclasses
import json
import os
import typing
from dataclasses import dataclass

from .features.pipeline import FeatureParams
from .nn.train import TrainConfig


def _has_type(value, field_type) -> bool:
    """isinstance for a field type such as int or float | None; bool is no number."""
    allowed = typing.get_args(field_type) or (field_type,)
    if float in allowed:
        allowed += (int,)
    return isinstance(value, allowed) and (bool in allowed or not isinstance(value, bool))


@dataclass(frozen=True)
class RunConfig(FeatureParams, TrainConfig):
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
    # Training (the optimiser and callback fields come from TrainConfig).
    n_classes: int = 50
    # Misc.
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
        hints = typing.get_type_hints(cls)
        for key, value in values.items():
            if not _has_type(value, hints[key]):
                expected = getattr(hints[key], "__name__", hints[key])  # int, or float | None
                raise ValueError(f"config key {key!r} must be {expected}, got {value!r}")
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
