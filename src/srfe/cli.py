"""Command-line pipeline: extract, split, train, eval, report.

Every command is driven by a RunConfig (defaults < --config file < flags)
and is deterministic given the config and seed.  Exit code 0 means all
requested work succeeded; per-clip extraction failures are logged and
counted, and any failure makes the exit code nonzero.

Set SRFE_LOG={error|warn|info|debug} to control verbosity.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from .atomic import atomic_write
from .audio import load_wav, pad_or_trim, resample
from .config import RunConfig
from .dataset import parse_manifest, read_split, stratified_split, write_split
from .errors import ManifestError, SrfeError
from .features import FEATURE_KINDS, read_feature_file, write_feature_file
from .features.pipeline import extract_feature_images
from .metrics import build_eval_report
from .nn import load_checkpoint, save_checkpoint, train, write_history_csv
from .nn.model import ConvNet

log = logging.getLogger("srfe")

CATEGORY_LABELS = ("I", "II", "III", "IV", "V")


# The flag vocabulary says "tempogram"; the stored kind is cyclic_tempogram.
FEATURE_ALIASES = {"tempogram": "cyclic_tempogram"}


def _canonical_feature(name: str) -> str:
    return FEATURE_ALIASES.get(name, name)


def _requested_kinds(cfg: RunConfig) -> list[str]:
    if cfg.feature == "all":
        return list(FEATURE_KINDS)
    kind = _canonical_feature(cfg.feature)
    if kind not in FEATURE_KINDS:
        raise ValueError(f"unknown feature {cfg.feature!r}; choose from {FEATURE_KINDS} or 'all'")
    return [kind]


def _extract_one(task) -> tuple[str, str | None]:
    """Worker: one clip through ingest + extraction + file writes."""
    wav_path, stem, kinds, cfg = task
    try:
        clip = load_wav(wav_path)
        clip = resample(clip, cfg.sample_rate)
        clip = pad_or_trim(clip, cfg.clip_samples)
        images = extract_feature_images(clip, kinds, cfg)
        for kind, img in images.items():
            write_feature_file(img, Path(cfg.feature_dir) / kind / f"{stem}.srf")
        return stem, None
    except Exception as exc:  # noqa: BLE001 - worker reports, parent decides
        return stem, f"{type(exc).__name__}: {exc}"


def cmd_extract(cfg: RunConfig) -> int:
    records = parse_manifest(cfg.manifest)
    if not records:
        log.error("manifest %s lists no clips", cfg.manifest)
        return 1
    kinds = _requested_kinds(cfg)
    out_root = Path(cfg.feature_dir)
    for kind in kinds:
        (out_root / kind).mkdir(parents=True, exist_ok=True)

    tasks = [
        (str(Path(cfg.audio_dir) / rec.filename), Path(rec.filename).stem, kinds, cfg)
        for rec in records
    ]

    workers = cfg.effective_workers()
    failures = 0
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_extract_one, tasks, chunksize=4))
    else:
        results = [_extract_one(t) for t in tasks]
    for stem, error in results:
        if error is not None:
            failures += 1
            log.error("extraction failed for %s: %s", stem, error)

    ok_stems = {stem for stem, error in results if error is None}
    for kind in kinds:
        manifest_path = out_root / kind / "manifest.jsonl"
        with atomic_write(manifest_path) as fh:
            for rec in records:
                stem = Path(rec.filename).stem
                if stem not in ok_stems:
                    continue
                fh.write(
                    json.dumps(
                        {
                            "source": rec.filename,
                            "path": f"{stem}.srf",
                            "kind": kind,
                            "class_id": rec.class_id,
                            "class_name": rec.class_name,
                            "category_id": rec.category_id,
                        }
                    )
                    + "\n"
                )

    log.info("extracted %d/%d clips for %s", len(ok_stems), len(records), ", ".join(kinds))
    return 1 if failures else 0


def cmd_split(cfg: RunConfig) -> int:
    records = parse_manifest(cfg.manifest)
    split = stratified_split(records, cfg.train_fraction, cfg.seed)
    Path(cfg.split_file).parent.mkdir(parents=True, exist_ok=True)
    write_split(split, cfg.split_file)
    log.info(
        "split %d records into %d train / %d validation (seed %d)",
        len(records), len(split.train), len(split.validation), cfg.seed,
    )
    return 0


def _load_split(cfg: RunConfig, command: str, parts: tuple[str, ...]):
    """The canonical-kind config and one (images, labels) pair per split part."""
    if cfg.feature == "all":
        raise ValueError(f"{command} works on one feature kind at a time")
    cfg = cfg.with_overrides(feature=_canonical_feature(cfg.feature))
    labels_by_name = {rec.filename: rec.class_id for rec in parse_manifest(cfg.manifest)}
    split = read_split(cfg.split_file)
    for part in parts:
        if not split[part]:
            raise ManifestError(f"{cfg.split_file}: split part {part!r} lists no clips")
    kind_dir = Path(cfg.feature_dir) / cfg.feature
    sets = []
    for part in parts:
        images, labels = [], []
        for filename in split[part]:
            if filename not in labels_by_name:
                raise ManifestError(
                    f"{cfg.split_file}: clip {filename!r} is not in manifest {cfg.manifest}"
                )
            path = kind_dir / f"{Path(filename).stem}.srf"
            if not path.exists():
                raise FileNotFoundError(f"missing feature file {path} for clip {filename!r}")
            images.append(read_feature_file(path).values)
            labels.append(labels_by_name[filename])
        x = np.stack(images)[..., None].astype(np.float32)
        sets.append((x, np.asarray(labels, dtype=np.int64)))
    return cfg, sets


def cmd_train(cfg: RunConfig) -> int:
    cfg, ((train_x, train_y), (val_x, val_y)) = _load_split(cfg, "train", ("train", "validation"))
    model = ConvNet(
        input_height=train_x.shape[1],
        input_width=train_x.shape[2],
        n_classes=cfg.n_classes,
        seed=cfg.seed,
    )
    model, history = train(model, train_x, train_y, val_x, val_y, cfg)

    Path(cfg.checkpoint).parent.mkdir(parents=True, exist_ok=True)
    save_checkpoint(model, cfg.checkpoint)
    write_history_csv(history, cfg.history_file)
    log.info(
        "trained %s for %d epochs; best val_loss %.4f; checkpoint %s",
        cfg.feature, history.epochs, min(history.val_loss), cfg.checkpoint,
    )
    return 0


def cmd_eval(cfg: RunConfig) -> int:
    cfg, ((val_x, val_y),) = _load_split(cfg, "eval", ("validation",))
    model = load_checkpoint(cfg.checkpoint)
    if val_x.shape[1:3] != (model.input_height, model.input_width):
        raise ValueError(
            f"feature images are {val_x.shape[1]}x{val_x.shape[2]} but the checkpoint "
            f"expects {model.input_height}x{model.input_width}"
        )
    y_pred, _ = model.predict(val_x, batch_size=cfg.batch_size)
    report = build_eval_report(val_y, y_pred, n_labels=model.n_classes, feature_kind=cfg.feature)

    out_dir = Path(cfg.report_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    out_path = out_dir / f"{cfg.feature}_report.json"
    with atomic_write(out_path) as fh:
        fh.write(report.to_json() + "\n")
    log.info(
        "evaluated %s: accuracy %.3f, class macro F1 %.3f -> %s",
        cfg.feature, report.overall_accuracy, report.macro["class_f1"], out_path,
    )
    return 0


def _pct(value: float) -> str:
    return f"{100.0 * value:.1f}"


def cmd_report(report_paths: list[str], out_dir: str) -> int:
    from .metrics import EvalReport

    if not report_paths:
        raise ValueError("need at least one eval report")
    reports = [EvalReport.from_json(Path(p).read_text()) for p in report_paths]

    n_labels = reports[0].class_confusion.n_labels
    n_categories = reports[0].category_confusion.n_labels
    for rep in reports[1:]:
        if rep.class_confusion.n_labels != n_labels:
            raise ValueError(
                f"report for {rep.feature_kind!r} has {rep.class_confusion.n_labels} "
                f"classes, others have {n_labels}"
            )

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    cat_labels = [
        CATEGORY_LABELS[i] if i < len(CATEGORY_LABELS) else f"G{i}" for i in range(n_categories)
    ]

    for metric in ("accuracy", "precision", "recall", "f1"):
        path = out / f"category_{metric}.csv"
        with atomic_write(path) as fh:
            fh.write("feature," + ",".join(cat_labels) + "\n")
            for rep in reports:
                values = getattr(rep.category, metric)
                fh.write(rep.feature_kind + "," + ",".join(_pct(v) for v in values) + "\n")

    group = 10
    for cat in range(n_categories):
        lo, hi = cat * group, min((cat + 1) * group, n_labels)
        path = out / f"class_precision_category_{cat_labels[cat]}.csv"
        with atomic_write(path) as fh:
            fh.write("feature," + ",".join(str(c) for c in range(lo, hi)) + "\n")
            for rep in reports:
                row = rep.class_precision[lo:hi]
                fh.write(rep.feature_kind + "," + ",".join(_pct(v) for v in row) + "\n")

    log.info("wrote report tables for %d feature(s) to %s", len(reports), out)
    return 0


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file (RunConfig keys)")
    parser.add_argument("--feature", help="feature kind or 'all'")
    parser.add_argument("--audio-dir", dest="audio_dir")
    parser.add_argument("--manifest")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--epochs", type=int)
    parser.add_argument("--workers", type=int)


def _build_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig.from_file(args.config) if args.config else RunConfig()
    fields = RunConfig.field_names()
    return cfg.with_overrides(**{k: v for k, v in vars(args).items() if k in fields})


def main(argv=None) -> int:
    level = os.environ.get("SRFE_LOG", "info").upper()
    level = {"WARN": "WARNING"}.get(level, level)
    logging.basicConfig(level=getattr(logging, level, logging.INFO), format="%(levelname)s %(message)s")

    parser = argparse.ArgumentParser(prog="srfe", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extract", help="decode clips and write feature files")
    _add_common(p)
    p.add_argument("--out", dest="feature_dir", help="feature directory")

    p = sub.add_parser("split", help="write the stratified train/validation split")
    _add_common(p)
    p.add_argument("--out", dest="split_file", help="split JSON path")

    p = sub.add_parser("train", help="train the classifier on one feature kind")
    _add_common(p)
    p.add_argument("--out", dest="checkpoint", help="checkpoint path")
    p.add_argument("--feature-dir", dest="feature_dir")
    p.add_argument("--split-file", dest="split_file")
    p.add_argument("--history-file", dest="history_file")

    p = sub.add_parser("eval", help="evaluate a checkpoint on the validation split")
    _add_common(p)
    p.add_argument("--out", dest="report_dir", help="report directory")
    p.add_argument("--feature-dir", dest="feature_dir")
    p.add_argument("--split-file", dest="split_file")
    p.add_argument("--checkpoint")

    p = sub.add_parser("report", help="emit heatmap CSV tables from eval reports")
    p.add_argument("reports", nargs="+", help="eval report JSON files")
    p.add_argument("--out", default="reports", help="output directory")

    args = parser.parse_args(argv)
    try:
        if args.command == "report":
            return cmd_report(args.reports, args.out)
        commands = {"extract": cmd_extract, "split": cmd_split, "train": cmd_train, "eval": cmd_eval}
        return commands[args.command](_build_config(args))
    except (SrfeError, ValueError, FileNotFoundError) as exc:
        log.error("%s", exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
