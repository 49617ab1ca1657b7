"""ESC-50 manifest handling and the stratified train/validation split.

The dataset ships a CSV manifest (filename, fold, target, category, esc10,
src_file, take); targets 0-49 group into five major categories of ten
classes each, so the category is always floor(class / 10).

The split has to be reproducible across machines and implementations, so it
avoids any library RNG.  The exact procedure, given (records, fraction, seed):

  1. group records by class id; within each class sort by filename,
  2. draw from a single SplitMix64 stream seeded with `seed`, visiting the
     classes in ascending class id order,
  3. Fisher-Yates shuffle each class list: for i = n-1 .. 1, swap index i
     with index (next_u64() mod (i + 1)),
  4. the first round(n * fraction) shuffled records (Python's banker's
     rounding) go to training, the rest to validation.

The dataset's own fold column plays no part in the split; it is kept on the
records for provenance only.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

from .atomic import atomic_write
from .errors import DuplicateFilenameError, ManifestError, StratificationError

N_CLASSES = 50
N_CATEGORIES = 5
CLASSES_PER_CATEGORY = 10

_REQUIRED_COLUMNS = ("filename", "fold", "target", "category")

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """Tiny deterministic 64-bit generator (SplitMix64)."""

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)


def fisher_yates(items: list, rng: SplitMix64) -> None:
    """In-place shuffle; swap partner at step i is next_u64() mod (i + 1)."""
    for i in range(len(items) - 1, 0, -1):
        j = rng.next_u64() % (i + 1)
        items[i], items[j] = items[j], items[i]


@dataclass(frozen=True)
class ClipRecord:
    filename: str
    fold: int
    class_id: int
    class_name: str
    category_id: int


@dataclass
class SplitAssignment:
    train: list[ClipRecord]
    validation: list[ClipRecord]
    seed: int


def category_of(class_id: int) -> int:
    """Major category (0-4) of a class id (0-49)."""
    if not 0 <= class_id < N_CLASSES:
        raise ValueError(f"class_id must be in [0, {N_CLASSES - 1}], got {class_id}")
    return class_id // CLASSES_PER_CATEGORY


def parse_manifest(csv_path) -> list[ClipRecord]:
    """Read the dataset CSV into clip records."""
    with open(csv_path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise ManifestError(f"{csv_path}: empty manifest")
        missing = [c for c in _REQUIRED_COLUMNS if c not in reader.fieldnames]
        if missing:
            raise ManifestError(f"{csv_path}: missing columns {missing}")

        records = []
        seen = set()
        for row in reader:
            target = int(row["target"])
            if not 0 <= target < N_CLASSES:
                raise ValueError(
                    f"{csv_path}: target {target} out of range for {row['filename']!r}"
                )
            filename = row["filename"]
            if filename in seen:
                raise DuplicateFilenameError(f"{csv_path}: duplicate filename {filename!r}")
            seen.add(filename)
            records.append(
                ClipRecord(
                    filename=filename,
                    fold=int(row["fold"]),
                    class_id=target,
                    class_name=row["category"],
                    category_id=category_of(target),
                )
            )
    return records


def stratified_split(
    records: list[ClipRecord], train_fraction: float = 0.8, seed: int = 0
) -> SplitAssignment:
    """Deterministic per-class split; see the module docstring for the procedure."""
    if not 0 < train_fraction < 1:
        raise ValueError(f"train_fraction must be in (0, 1), got {train_fraction}")

    by_class: dict[int, list[ClipRecord]] = {}
    for rec in records:
        by_class.setdefault(rec.class_id, []).append(rec)

    for class_id, group in by_class.items():
        if len(group) < 2:
            raise StratificationError(
                f"class {class_id} has {len(group)} record(s); need at least 2 to split"
            )

    rng = SplitMix64(seed)
    train: list[ClipRecord] = []
    validation: list[ClipRecord] = []
    for class_id in sorted(by_class):
        group = sorted(by_class[class_id], key=lambda r: r.filename)
        fisher_yates(group, rng)
        n_train = round(len(group) * train_fraction)
        train.extend(group[:n_train])
        validation.extend(group[n_train:])
    return SplitAssignment(train=train, validation=validation, seed=seed)


def write_split(split: SplitAssignment, path) -> None:
    payload = {
        "seed": split.seed,
        "train": [r.filename for r in split.train],
        "validation": [r.filename for r in split.validation],
    }
    with atomic_write(path) as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def read_split(path) -> dict:
    with open(path) as fh:
        payload = json.load(fh)
    for key in ("seed", "train", "validation"):
        if key not in payload:
            raise ManifestError(f"{path}: split file missing {key!r}")
    return payload
