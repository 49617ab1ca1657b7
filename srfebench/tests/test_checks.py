"""Each benchmark check accepts a correct output and rejects a corrupted one."""

import json

import numpy as np
import pytest

import checks
import corpus
from srfe.audio import AudioClip
from srfe.features import FeatureMatrix, to_feature_image, write_feature_file
from srfe.features.pipeline import extract_feature_matrices
from srfe.metrics import build_eval_report

CLASSES = tuple(corpus.CLASSES)


def tone_clip(midi=69):
    return corpus.Clip("1-100000-A-0.wav", 0, "tone", 0, {"amp": 0.5, "midi": midi, "phase": 0.0, "noise_seed": 0})


@pytest.fixture(scope="module")
def tone_matrices():
    clip = tone_clip()
    audio = AudioClip(corpus.render(clip, checks.SAMPLE_RATE).astype(np.float32), checks.SAMPLE_RATE)
    return extract_feature_matrices(audio, checks.KINDS)


def image(matrix):
    return to_feature_image(matrix).values


def test_image_check_rejects_constant_and_transposed(tone_matrices):
    good = image(tone_matrices["mel"])
    assert checks.check_image(good, "mel") == []
    assert checks.check_image(np.full_like(good, 0.5), "mel")
    assert checks.check_image(good.T.copy(), "mel")
    assert checks.check_image(np.where(good > 0.5, np.nan, good), "mel")


def test_srf_reader_follows_the_format(tmp_path, tone_matrices):
    path = tmp_path / "x.srf"
    write_feature_file(to_feature_image(tone_matrices["mfcc"]), path)
    values, problems = checks.read_srf(path, "mfcc")
    assert problems == [] and values.shape == checks.IMAGE_SHAPE
    assert checks.read_srf(path, "mel")[1]  # kind code of another directory
    path.write_bytes(path.read_bytes()[:-4])
    assert checks.read_srf(path, "mfcc")[1]


@pytest.mark.parametrize("kind", checks.CHROMA_KINDS)
def test_chroma_check_rejects_peak_one_class_off(tone_matrices, kind):
    matrix = tone_matrices[kind]
    assert checks.check_chroma_peak(image(matrix), 9, kind) == []  # A4 is class 9
    shifted = FeatureMatrix(kind, np.roll(matrix.values, 1, axis=0), matrix.frame_hop_seconds)
    assert checks.check_chroma_peak(image(shifted), 9, kind)


def test_mel_check_uses_the_breakpoint_scale(tone_matrices):
    mel = image(tone_matrices["mel"])
    assert checks.check_mel_peak(mel, 440.0, "mel") == []
    assert checks.check_mel_peak(mel, 660.0, "mel")
    # 1 kHz is the breakpoint, 15 mel; the top band sits just below Nyquist.
    assert checks.hz_to_mel(1000.0) == pytest.approx(15.0)
    assert checks.nearest_mel_band(11000.0) == checks.N_MELS - 1


def test_tempo_check_rejects_wrong_tempo():
    clip = corpus.Clip("c.wav", 20, "clicks", 0, {"amp": 0.6, "bpm": 96.0, "offset_s": 0.1, "noise_seed": 0})
    audio = AudioClip(corpus.render(clip, checks.SAMPLE_RATE).astype(np.float32), checks.SAMPLE_RATE)
    tempogram = image(extract_feature_matrices(audio, ["cyclic_tempogram"])["cyclic_tempogram"])
    assert checks.check_tempo_peak(tempogram, 96.0, "t") == []
    assert checks.check_tempo_peak(tempogram, 76.0, "t")


def sidecar(clips, kind):
    return "".join(
        json.dumps({"source": c.filename, "path": f"{c.stem}.srf", "kind": kind, "class_id": c.class_id,
                    "class_name": corpus.CLASSES[c.class_id][0], "category_id": c.class_id // 10}) + "\n"
        for c in clips
    )


def test_feature_manifest_check_rejects_swapped_class_ids(tmp_path):
    clips = corpus.make_clips(seed=3, per_class=2, classes=CLASSES)
    path = tmp_path / "manifest.jsonl"
    path.write_text(sidecar(clips, "mel"))
    assert checks.check_feature_manifest(path, "mel", clips) == []
    rows = path.read_text().splitlines()
    a, b = json.loads(rows[0]), json.loads(rows[-2])
    a["class_id"], b["class_id"] = b["class_id"], a["class_id"]
    rows[0], rows[-2] = json.dumps(a), json.dumps(b)
    path.write_text("\n".join(rows) + "\n")
    assert checks.check_feature_manifest(path, "mel", clips)


def eval_outputs():
    """A report and the history rows that agree with it: 7 of 10 right."""
    y_true = np.array([0, 1, 10, 11, 20, 21, 30, 31, 40, 41])
    y_pred = np.array([0, 1, 10, 20, 20, 21, 30, 0, 40, 40])
    report = json.loads(build_eval_report(y_true, y_pred).to_json())
    history = [
        {"epoch": 1.0, "train_loss": 3.9, "train_acc": 0.1, "val_loss": 3.5, "val_acc": 0.4},
        {"epoch": 2.0, "train_loss": 3.1, "train_acc": 0.3, "val_loss": 2.9, "val_acc": 0.7},
        {"epoch": 3.0, "train_loss": 2.8, "train_acc": 0.4, "val_loss": 3.0, "val_acc": 0.8},
    ]
    return report, history


def test_report_check_rejects_accuracy_off_by_one_clip():
    report, history = eval_outputs()
    assert checks.check_report(report, history, 10) == []
    history[1]["val_acc"] = 0.6
    assert checks.check_report(report, history, 10)
    report, history = eval_outputs()
    report["overall_accuracy"] = 0.8
    assert checks.check_report(report, history, 10)


def test_report_check_rejects_category_confusion_not_block_sums():
    report, history = eval_outputs()
    cat = report["category_confusion"]
    cat[1][1] -= 1
    cat[1][2] += 1  # same total, wrong cells
    assert checks.check_report(report, history, 10)


def test_report_check_rejects_wrong_total():
    report, history = eval_outputs()
    assert checks.check_report(report, history, 11)


def test_split_check():
    clips = corpus.make_clips(seed=5, per_class=4, classes=CLASSES)
    by_class = {}
    for c in clips:
        by_class.setdefault(c.class_id, []).append(c.filename)
    train = [n for names in by_class.values() for n in names[: round(0.8 * len(names))]]
    val = [c.filename for c in clips if c.filename not in train]
    assert checks.check_split({"train": train, "validation": val}, clips) == []
    assert checks.check_split({"train": train, "validation": val + train[:1]}, clips)
    assert checks.check_split({"train": train[1:], "validation": val + train[:1]}, clips)
    assert checks.check_split({"train": train, "validation": val[1:]}, clips)


def test_history_check_rejects_non_finite_loss():
    _, history = eval_outputs()
    assert checks.check_history(history, 3) == []
    history[2]["val_loss"] = float("nan")
    assert checks.check_history(history, 3)
    assert checks.check_history(history[:2], 3)


def test_duplicate_and_same_outputs(tmp_path, tone_matrices):
    for kind in checks.KINDS:
        (tmp_path / "a" / kind).mkdir(parents=True)
        for stem in ("x", "y"):
            write_feature_file(to_feature_image(tone_matrices[kind]), tmp_path / "a" / kind / f"{stem}.srf")
    assert checks.check_duplicate(tmp_path / "a", "x", "y") == []
    (tmp_path / "b").mkdir()
    for p in (tmp_path / "a").rglob("*.srf"):
        target = tmp_path / "b" / p.relative_to(tmp_path / "a")
        target.parent.mkdir(exist_ok=True)
        target.write_bytes(p.read_bytes())
    assert checks.check_same_outputs(tmp_path / "a", tmp_path / "b") == []
    flipped = tmp_path / "a" / "mel" / "y.srf"
    data = bytearray(flipped.read_bytes())
    data[-1] ^= 1
    flipped.write_bytes(bytes(data))
    assert checks.check_duplicate(tmp_path / "a", "x", "y")
    assert checks.check_same_outputs(tmp_path / "a", tmp_path / "b")


def test_resample_snr():
    rate = checks.SAMPLE_RATE
    t = np.arange(5 * rate) / rate
    ref = 0.5 * np.sin(2 * np.pi * 440.0 * t)
    assert checks.resample_snr_db(ref + 1e-5 * np.cos(t), ref) > checks.MIN_RESAMPLE_SNR_DB
    assert checks.resample_snr_db(np.roll(ref, 1), ref) < checks.MIN_RESAMPLE_SNR_DB


def test_inputs_depend_only_on_the_seed():
    a = corpus.make_clips(seed=9, per_class=2, classes=CLASSES)
    b = corpus.make_clips(seed=9, per_class=2, classes=CLASSES)
    c = corpus.make_clips(seed=10, per_class=2, classes=CLASSES)
    assert [x.params for x in a] == [x.params for x in b]
    assert [x.params for x in a] != [x.params for x in c]
    assert np.array_equal(corpus.render(a[1], 44100), corpus.render(b[1], 44100))
    families = {c.family for c in a}
    assert families == {"tone", "noise_burst", "chirp", "am_noise", "clicks"}
    assert {c.class_id // 10 for c in a} == set(range(5))
