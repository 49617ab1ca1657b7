"""End-to-end command pipeline on a small synthetic corpus, plus report tables."""

import csv
import json
import logging
from pathlib import Path

import numpy as np
import pytest

import synth
from srfe import cli
from srfe.cli import cmd_report, main
from srfe.config import RunConfig
from srfe.features import FEATURE_KINDS, read_feature_file
from srfe.metrics import build_eval_report


@pytest.fixture(scope="module")
def small_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    manifest = synth.build_corpus(root, clips_per_class=4, duration=5.0, seed=77)
    return root, manifest


class TestConfig:
    def test_file_flag_precedence(self, tmp_path):
        cfg_path = tmp_path / "run.json"
        RunConfig(feature="mfcc", seed=3).save(cfg_path)
        loaded = RunConfig.from_file(cfg_path)
        assert loaded.feature == "mfcc"
        assert loaded.seed == 3
        overridden = loaded.with_overrides(seed=9, feature=None)
        assert overridden.seed == 9
        assert overridden.feature == "mfcc"  # None flags do not override

    def test_roundtrip_lossless(self, tmp_path):
        cfg = RunConfig(feature="chroma_cqt", epochs=7, fmax=8000.0)
        path = tmp_path / "cfg.json"
        cfg.save(path)
        assert RunConfig.from_file(path) == cfg

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            RunConfig.from_dict({"feature": "mel", "typo_field": 1})

    def test_config_file_through_cli(self, small_corpus, tmp_path):
        root, manifest = small_corpus
        split_file = tmp_path / "split.json"
        cfg_path = tmp_path / "run.json"
        RunConfig(manifest=str(manifest), split_file=str(split_file), seed=3).save(cfg_path)
        assert main(["split", "--config", str(cfg_path)]) == 0
        seeded = json.loads(split_file.read_text())
        assert seeded["seed"] == 3
        # A flag overrides the file value.
        assert main(["split", "--config", str(cfg_path), "--seed", "4"]) == 0
        assert json.loads(split_file.read_text())["seed"] == 4


    @pytest.mark.parametrize(
        "command, field",
        [("extract", "feature_dir"), ("split", "split_file"), ("train", "checkpoint"), ("eval", "report_dir")],
    )
    def test_out_flag_lands_in_its_field(self, monkeypatch, tmp_path, command, field):
        seen = []
        monkeypatch.setattr(cli, f"cmd_{command}", lambda cfg: seen.append(cfg) or 0)
        assert main([command, "--out", str(tmp_path / "out")]) == 0
        defaults = RunConfig()
        for name in ("feature_dir", "split_file", "checkpoint", "report_dir"):
            expected = str(tmp_path / "out") if name == field else getattr(defaults, name)
            assert getattr(seen[0], name) == expected

    def test_config_spectral_key_reaches_extractor(self, small_corpus, tmp_path, caplog):
        root, manifest = small_corpus
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"n_mfcc": 200}))
        with caplog.at_level(logging.ERROR, logger="srfe"):
            rc = main([
                "extract", "--feature", "mfcc", "--config", str(cfg_path),
                "--audio-dir", str(root / "audio"),
                "--manifest", str(manifest),
                "--out", str(tmp_path / "features"),
                "--workers", "1",
            ])
        assert rc == 1
        assert "n_mfcc=200" in caplog.text


class TestExtract:
    def test_extract_all_kinds(self, small_corpus):
        root, manifest = small_corpus
        feature_dir = root / "features"
        rc = main([
            "extract", "--feature", "all",
            "--audio-dir", str(root / "audio"),
            "--manifest", str(manifest),
            "--out", str(feature_dir),
            "--workers", "1",
        ])
        assert rc == 0
        for kind in FEATURE_KINDS:
            files = sorted((feature_dir / kind).glob("*.srf"))
            assert len(files) == 20
            img = read_feature_file(files[0])
            assert img.values.shape == (128, 216)
            assert img.kind == kind
            lines = (feature_dir / kind / "manifest.jsonl").read_text().splitlines()
            assert len(lines) == 20
            entry = json.loads(lines[0])
            assert set(entry) == {"source", "path", "kind", "class_id", "class_name", "category_id"}

    def test_worker_pool_matches_serial(self, small_corpus, tmp_path):
        root, manifest = small_corpus
        serial = root / "features" / "mfcc" / "tone_000.srf"
        pooled_dir = tmp_path / "pooled"
        rc = main([
            "extract", "--feature", "mfcc",
            "--audio-dir", str(root / "audio"),
            "--manifest", str(manifest),
            "--out", str(pooled_dir),
            "--workers", "2",
        ])
        assert rc == 0
        assert (pooled_dir / "mfcc" / "tone_000.srf").read_bytes() == serial.read_bytes()

    def test_rerun_is_byte_identical(self, small_corpus):
        root, manifest = small_corpus
        feature_dir = root / "features"
        target = feature_dir / "mel" / "tone_000.srf"
        before = target.read_bytes()
        rc = main([
            "extract", "--feature", "mel",
            "--audio-dir", str(root / "audio"),
            "--manifest", str(manifest),
            "--out", str(feature_dir),
            "--workers", "1",
        ])
        assert rc == 0
        assert target.read_bytes() == before

    def test_tempogram_flag_alias(self, small_corpus, tmp_path):
        root, manifest = small_corpus
        rc = main([
            "extract", "--feature", "tempogram",
            "--audio-dir", str(root / "audio"),
            "--manifest", str(manifest),
            "--out", str(tmp_path / "features"),
            "--workers", "1",
        ])
        assert rc == 0
        files = list((tmp_path / "features" / "cyclic_tempogram").glob("*.srf"))
        assert len(files) == 20

    def test_missing_clip_fails_with_nonzero_exit(self, small_corpus, tmp_path):
        root, manifest = small_corpus
        broken = tmp_path / "broken.csv"
        text = manifest.read_text().splitlines()
        text.append("missing.wav,1,0,tone,False,missing.wav,A")
        broken.write_text("\n".join(text) + "\n")
        rc = main([
            "extract", "--feature", "mel",
            "--audio-dir", str(root / "audio"),
            "--manifest", str(broken),
            "--out", str(tmp_path / "features"),
            "--workers", "1",
        ])
        assert rc == 1
        # The valid clips still extracted.
        assert len(list((tmp_path / "features" / "mel").glob("*.srf"))) == 20


class TestSplitTrainEval:
    def test_full_pipeline(self, small_corpus):
        root, manifest = small_corpus
        feature_dir = root / "features"
        split_file = root / "split.json"
        rc = main([
            "split",
            "--manifest", str(manifest),
            "--out", str(split_file),
            "--seed", "5",
        ])
        assert rc == 0
        split = json.loads(split_file.read_text())
        assert len(split["train"]) == 15  # round(4 * 0.8) = 3 per class
        assert len(split["validation"]) == 5

        checkpoint = root / "model.srnn"
        history_file = root / "history.csv"
        rc = main([
            "train", "--feature", "mel",
            "--manifest", str(manifest),
            "--feature-dir", str(feature_dir),
            "--split-file", str(split_file),
            "--out", str(checkpoint),
            "--history-file", str(history_file),
            "--epochs", "2",
            "--seed", "5",
        ])
        assert rc == 0
        assert checkpoint.exists()
        with open(history_file) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        lrs = [float(r["lr"]) for r in rows]
        assert all(b <= a for a, b in zip(lrs, lrs[1:]))

        report_dir = root / "reports"
        rc = main([
            "eval", "--feature", "mel",
            "--manifest", str(manifest),
            "--feature-dir", str(feature_dir),
            "--split-file", str(split_file),
            "--checkpoint", str(checkpoint),
            "--out", str(report_dir),
        ])
        assert rc == 0
        report = json.loads((report_dir / "mel_report.json").read_text())
        assert report["feature_kind"] == "mel"
        cm = np.asarray(report["class_confusion"])
        assert cm.shape == (50, 50)
        assert cm.sum() == 5
        # Row sums equal per-class validation counts: one clip per class here.
        np.testing.assert_array_equal(cm.sum(axis=1)[:5], np.ones(5, dtype=np.int64))
        assert np.all(cm.sum(axis=1)[5:] == 0)

        # Self-consistency: stored metrics equal recomputation from the matrix.
        from srfe.metrics import ConfusionMatrix, per_label_precision_recall_f1
        p, r, f1 = per_label_precision_recall_f1(ConfusionMatrix(cm))
        np.testing.assert_allclose(report["per_class"]["precision"], p, atol=1e-12)
        np.testing.assert_allclose(report["per_class"]["f1"], f1, atol=1e-12)

    def test_checkpoint_architecture_mismatch(self, small_corpus, tmp_path):
        from srfe.nn import ConvNet, save_checkpoint

        root, manifest = small_corpus
        small_model = ConvNet(16, 16, 5, seed=0, conv_filters=(4,), dense_units=8)
        bad_ckpt = tmp_path / "small.srnn"
        save_checkpoint(small_model, bad_ckpt)
        rc = main([
            "eval", "--feature", "mel",
            "--manifest", str(manifest),
            "--feature-dir", str(root / "features"),
            "--split-file", str(root / "split.json"),
            "--checkpoint", str(bad_ckpt),
            "--out", str(tmp_path / "reports"),
        ])
        assert rc == 1

    def test_missing_feature_file_named(self, small_corpus, tmp_path):
        root, manifest = small_corpus
        rc = main([
            "train", "--feature", "mfcc",
            "--manifest", str(manifest),
            "--feature-dir", str(tmp_path / "nowhere"),
            "--split-file", str(root / "split.json"),
            "--out", str(tmp_path / "m.srnn"),
            "--epochs", "1",
        ])
        assert rc == 1


class TestReport:
    @staticmethod
    def fake_report(kind, seed):
        rng = np.random.default_rng(seed)
        y_true = np.repeat(np.arange(50), 8)
        y_pred = np.where(rng.random(400) < 0.5, y_true, rng.integers(0, 50, 400))
        return build_eval_report(y_true, y_pred, feature_kind=kind)

    def test_six_feature_tables(self, tmp_path):
        paths = []
        for i, kind in enumerate(FEATURE_KINDS):
            report = self.fake_report(kind, i)
            path = tmp_path / f"{kind}.json"
            path.write_text(report.to_json())
            paths.append(str(path))
        out = tmp_path / "tables"
        assert cmd_report(paths, str(out)) == 0

        with open(out / "category_accuracy.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["feature", "I", "II", "III", "IV", "V"]
        assert len(rows) == 7  # header + six features
        assert rows[1][0] == "mel"

        # Cell values are report values x 100 at one decimal.
        report = self.fake_report("mel", 0)
        expected = f"{100 * report.category.accuracy[0]:.1f}"
        assert rows[1][1] == expected

        for label in ("I", "II", "III", "IV", "V"):
            with open(out / f"class_precision_category_{label}.csv") as fh:
                table = list(csv.reader(fh))
            assert len(table) == 7
            assert len(table[1]) == 11  # feature name + ten classes

    def test_single_report_degenerate_table(self, tmp_path):
        path = tmp_path / "one.json"
        path.write_text(self.fake_report("mfcc", 3).to_json())
        out = tmp_path / "tables"
        assert cmd_report([str(path)], str(out)) == 0
        rows = (out / "category_f1.csv").read_text().splitlines()
        assert len(rows) == 2

    def test_inconsistent_reports_rejected(self, tmp_path):
        a = tmp_path / "a.json"
        a.write_text(self.fake_report("mel", 1).to_json())
        b = tmp_path / "b.json"
        rng = np.random.default_rng(2)
        small = build_eval_report(rng.integers(0, 5, 50), rng.integers(0, 5, 50),
                                  n_labels=5, feature_kind="mfcc")
        b.write_text(small.to_json())
        with pytest.raises(ValueError, match="classes"):
            cmd_report([str(a), str(b)], str(tmp_path / "tables"))
