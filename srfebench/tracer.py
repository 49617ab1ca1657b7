"""Run one srfe command with a span around each call into the program's layers.

    python3 tracer.py OUT_PREFIX SRFE_ARGS...

The program is not modified: before `srfe.cli.main` runs, the public
functions of each module are replaced, where their callers look them up,
by wrappers that record calls, inclusive time and self time (inclusive
time minus the time of spans nested inside).  Spans are kept in memory.
The command's process writes them to OUT_PREFIX.main.json when it ends.
Each `srfe extract` worker writes its own after every clip, to
OUT_PREFIX.<pid>.json.

Layers inside the network are named by where they run: a span under a
training step (`nn.step`), an evaluation pass (`nn.evaluate`) or a
prediction (`nn.predict`) is recorded under that phase.  Conv blocks are
told apart by their input channel count.

`layer_metrics`, at the end, reads the span files of a traced round back
into the benchmark's per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
from pathlib import Path
from time import perf_counter

PHASES = ("nn.step", "nn.evaluate", "nn.predict")
# Input channels of each conv block in the default ConvNet (64/128/256/256).
CONV_BY_CIN = {1: 1, 64: 2, 128: 3, 256: 4}


class Tracer:
    def __init__(self):
        self.pid = os.getpid()
        self.stats: dict[str, list] = {}  # "phase|name" -> [calls, total_s, self_s, work...]
        self.stack: list = []

    def reset(self) -> None:
        self.pid = os.getpid()
        self.stats.clear()
        self.stack.clear()

    def wrap(self, fn, name, work=None):
        """`name` is a label or a function of the call's arguments; `work`
        maps the arguments to a tuple of counts summed per label."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(args) if callable(name) else name
            children = [0.0]
            self.stack.append((label, children))
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self.stack.pop()
                phase = next((n for n, _ in reversed(self.stack) if n in PHASES), "")
                rec = self.stats.setdefault(f"{phase}|{label}", [0, 0.0, 0.0])
                rec[0] += 1
                rec[1] += elapsed
                rec[2] += elapsed - children[0]
                if work is not None:
                    counts = work(args)
                    rec.extend([0.0] * (3 + len(counts) - len(rec)))
                    for i, c in enumerate(counts):
                        rec[3 + i] += c
                if self.stack:
                    self.stack[-1][1][0] += elapsed

        return traced

    def dump(self, path, **extra) -> None:
        with open(path, "w") as fh:
            json.dump({"pid": os.getpid(), "stats": self.stats, **extra}, fh)


def _conv_name(direction):
    # forward(x, w, b) and backward(dout, xp, w) both see the block's input
    # channels last on their first array of input width.
    def name(args):
        cin = (args[0] if direction == "fwd" else args[1]).shape[3]
        return f"nn.conv{CONV_BY_CIN.get(cin, 0)}.{direction}"

    return name


def _conv_work(args):
    """(computed FLOPs, computed im2col bytes) of one forward conv."""
    x, w = args[0], args[1]
    n, h, wd, cin = x.shape
    lowered = n * h * wd * 9 * cin
    return (2.0 * lowered * w.shape[3], float(lowered * x.itemsize))


def _by_rank(four_d: str, two_d: str):
    return lambda args: four_d if args[0].ndim == 4 else two_d


def _batch(args):
    """Samples in the call: x is the second argument of model.method(x) and
    of evaluate(model, x, y)."""
    return (args[1].shape[0],)

# (module, attribute, label or namer, work).  Each entry is patched where
# the caller looks the name up, so the program's own calls are traced.
TARGETS = [
    ("srfe.cli", "load_wav", "audio.load_wav", None),
    ("srfe.cli", "resample", "audio.resample", None),
    ("srfe.cli", "pad_or_trim", "audio.pad_or_trim", None),
    ("srfe.cli", "extract_feature_images", "features.extract_feature_images", None),
    ("srfe.cli", "write_feature_file", "features.write_feature_file", None),
    ("srfe.cli", "read_feature_file", "features.read_feature_file", None),
    ("srfe.cli", "parse_manifest", "dataset.parse_manifest", None),
    ("srfe.cli", "stratified_split", "dataset.stratified_split", None),
    ("srfe.cli", "write_split", "dataset.write_split", None),
    ("srfe.cli", "read_split", "dataset.read_split", None),
    ("srfe.cli", "train", "nn.train", None),
    ("srfe.cli", "save_checkpoint", "nn.save_checkpoint", None),
    ("srfe.cli", "load_checkpoint", "nn.load_checkpoint", None),
    ("srfe.cli", "write_history_csv", "nn.write_history_csv", None),
    ("srfe.cli", "build_eval_report", "metrics.build_eval_report", None),
    ("srfe.features.pipeline", "extract_feature_matrices", "features.extract_feature_matrices", None),
    ("srfe.features.pipeline", "stft", "dsp.stft", None),
    ("srfe.features.pipeline", "power_spectrogram", "dsp.power_spectrogram", None),
    ("srfe.features.pipeline", "build_mel_filterbank", "features.bank_build", None),
    ("srfe.features.pipeline", "build_chroma_map", "features.bank_build", None),
    ("srfe.features.pipeline", "build_cqt_kernel", "features.bank_build", None),
    ("srfe.features.pipeline", "mel_spectrogram", "features.mel_spectrogram", None),
    ("srfe.features.pipeline", "mfcc", "features.mfcc", None),
    ("srfe.features.pipeline", "onset_envelope", "features.onset_envelope", None),
    ("srfe.features.pipeline", "autocorrelation_tempogram", "features.autocorrelation_tempogram", None),
    ("srfe.features.pipeline", "cyclic_tempogram", "features.cyclic_tempogram", None),
    ("srfe.features.pipeline", "stft_chromagram", "features.stft_chromagram", None),
    ("srfe.features.pipeline", "cqt", "features.cqt", None),
    ("srfe.features.pipeline", "cqt_chromagram", "features.cqt_chromagram", None),
    ("srfe.features.pipeline", "fold_cqt_to_chroma", "features.fold_cqt_to_chroma", None),
    ("srfe.features.chroma", "fold_cqt_to_chroma", "features.fold_cqt_to_chroma", None),
    ("srfe.features.pipeline", "cens_chromagram", "features.cens_chromagram", None),
    ("srfe.features.pipeline", "to_feature_image", "features.to_feature_image", None),
    ("srfe.nn.model.ConvNet", "__init__", "nn.init_model", None),
    ("srfe.nn.model.ConvNet", "loss_and_grads", "nn.step", _batch),
    ("srfe.nn.model.ConvNet", "predict", "nn.predict", _batch),
    ("srfe.nn.train", "evaluate", "nn.evaluate", _batch),
    ("srfe.nn.train", "adam_step", "nn.adam_step", None),
    ("srfe.nn.layers", "batchnorm_freq_forward", "nn.batchnorm.fwd", None),
    ("srfe.nn.layers", "batchnorm_freq_backward", "nn.batchnorm.bwd", None),
    ("srfe.nn.layers", "conv3x3_forward", _conv_name("fwd"), _conv_work),
    ("srfe.nn.layers", "conv3x3_backward", _conv_name("bwd"), None),
    ("srfe.nn.layers", "relu_forward", _by_rank("nn.relu_pool.fwd", "nn.head"), None),
    ("srfe.nn.layers", "relu_backward", _by_rank("nn.relu_pool.bwd", "nn.head"), None),
    ("srfe.nn.layers", "maxpool2x2_forward", "nn.relu_pool.fwd", None),
    ("srfe.nn.layers", "maxpool2x2_backward", "nn.relu_pool.bwd", None),
    ("srfe.nn.layers", "dense_forward", "nn.head", None),
    ("srfe.nn.layers", "dense_backward", "nn.head", None),
    ("srfe.nn.layers", "dropout_forward", "nn.head", None),
    ("srfe.nn.layers", "dropout_backward", "nn.head", None),
    ("srfe.nn.layers", "softmax", "nn.head", None),
    ("srfe.nn.layers", "softmax_cross_entropy", "nn.head", None),
]

TRACER: Tracer | None = None
OUT_PREFIX = ""
_extract_one = None


def traced_extract_one(task):
    """Stands in for `srfe.cli._extract_one` in the extract pool.  Workers
    are forked from the traced process, so they inherit the wrappers; each
    drops the parent's spans on its first clip and writes its own after
    every clip."""
    if TRACER.pid != os.getpid():
        TRACER.reset()
    try:
        return _extract_one(task)
    finally:
        TRACER.dump(f"{OUT_PREFIX}.{os.getpid()}.json")


def _resolve(path: str):
    module_path, _, attr = path.rpartition(".")
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        return getattr(importlib.import_module(module_path), attr)


def install(out_prefix: str) -> Tracer:
    """Patch every target; a target the program no longer has is an error."""
    global TRACER, OUT_PREFIX, _extract_one
    TRACER, OUT_PREFIX = Tracer(), out_prefix
    originals = {}
    for owner_path, attr, name, work in TARGETS:
        owner = _resolve(owner_path)
        fn = getattr(owner, attr)  # AttributeError names a renamed layer
        fn = originals.setdefault(id(fn), (fn, TRACER.wrap(fn, name, work)))[1]
        setattr(owner, attr, fn)
    cli = importlib.import_module("srfe.cli")
    _extract_one = TRACER.wrap(cli._extract_one, "cli.extract_one")
    cli._extract_one = traced_extract_one
    cli.main = TRACER.wrap(cli.main, "cli.main")
    return TRACER


def main(argv: list[str]) -> int:
    out_prefix, srfe_args = argv[0], argv[1:]
    tracer = install(out_prefix)
    cli = importlib.import_module("srfe.cli")
    start = perf_counter()
    code = cli.main(srfe_args)
    tracer.dump(f"{out_prefix}.main.json", wall_s=perf_counter() - start, exit_code=code)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))


# -- reading side: per-layer metrics from the span files -------------------

NN_STEP_SAMPLES = 32


class Spans:
    """Span totals of one traced round, merged over commands and processes."""

    def __init__(self, trace_dir):
        self.stats: dict[str, list] = {}
        self.mains: dict[str, dict] = {}  # command -> its process's dump
        self.workers: list[dict] = []  # extract worker dumps
        for path in sorted(Path(trace_dir).glob("*.json")):
            command, _, tag = path.stem.partition(".")
            dump = json.loads(path.read_text())
            if tag == "main":
                self.mains[command] = dump
            else:
                self.workers.append(dump)
            for key, rec in dump["stats"].items():
                total = self.stats.setdefault(key, [0] * len(rec))
                total.extend([0] * (len(rec) - len(total)))
                for i, v in enumerate(rec):
                    total[i] += v

    def _match(self, name, phase):
        return [rec for key, rec in self.stats.items()
                if key.partition("|")[2] == name and (phase is None or key.partition("|")[0] == phase)]

    def calls(self, name, phase=None) -> float:
        return sum(rec[0] for rec in self._match(name, phase))

    def total(self, name, phase=None) -> float:
        return sum(rec[1] for rec in self._match(name, phase))

    def self_time(self, name, phase=None) -> float:
        return sum(rec[2] for rec in self._match(name, phase))

    def work(self, name, i=0, phase=None) -> float:
        return sum(rec[3 + i] for rec in self._match(name, phase) if len(rec) > 3 + i)


def layer_metrics(untraced, traced, problems: list) -> dict:
    """Per-layer metrics: {name: (value, unit)}.  `untraced` and `traced`
    are the two rounds (walls and CPU per command); a coverage shortfall is
    appended to `problems`."""
    s = Spans(traced.out / "trace")
    clips = s.calls("cli.extract_one")
    samples = s.work("nn.step", phase="")
    steps = samples / NN_STEP_SAMPLES  # 32-sample steps

    def per_clip(name):
        return (1e3 * s.self_time(name) / clips, "ms")

    def per_step(name):
        return (1e3 * s.self_time(name, "nn.step") / steps, "ms")

    def per_call(name):
        return (1e3 * s.total(name) / s.calls(name), "ms")

    m = {"cli.extract.cpu_s_per_clip": (untraced.cpu["extract"] / clips, "s")}
    for name in ("audio.load_wav", "audio.resample", "audio.pad_or_trim", "dsp.stft",
                 "dsp.power_spectrogram", "features.mel_spectrogram", "features.mfcc",
                 "features.onset_envelope", "features.autocorrelation_tempogram",
                 "features.cyclic_tempogram", "features.stft_chromagram", "features.cqt",
                 "features.cqt_chromagram", "features.cens_chromagram"):
        m[f"{name}.ms_per_clip"] = per_clip(name)
    m["features.fold_cqt_to_chroma.calls_per_clip"] = (s.calls("features.fold_cqt_to_chroma") / clips, "count")
    m["features.bank_build_ms"] = (1e3 * s.self_time("features.bank_build") / len(s.workers), "ms")
    m["features.to_feature_image.ms_per_clip"] = per_clip("features.to_feature_image")
    m["features.write_feature_file.ms_per_clip"] = per_clip("features.write_feature_file")
    m["features.read_feature_file.ms_per_clip"] = per_call("features.read_feature_file")

    m["nn.batchnorm.fwd_ms_per_step"] = per_step("nn.batchnorm.fwd")
    m["nn.batchnorm.bwd_ms_per_step"] = per_step("nn.batchnorm.bwd")
    im2col = 0.0
    for i in range(1, len(CONV_BY_CIN) + 1):
        m[f"nn.conv{i}.fwd_ms_per_step"] = per_step(f"nn.conv{i}.fwd")
        m[f"nn.conv{i}.bwd_ms_per_step"] = per_step(f"nn.conv{i}.bwd")
        flops = s.work(f"nn.conv{i}.fwd", 0, "nn.step")
        m[f"nn.conv{i}.gflop_per_s"] = (flops / s.self_time(f"nn.conv{i}.fwd", "nn.step") / 1e9, "GFLOP/s")
        im2col += s.work(f"nn.conv{i}.fwd", 1, "nn.step")
    m["nn.relu_pool.fwd_ms_per_step"] = per_step("nn.relu_pool.fwd")
    m["nn.relu_pool.bwd_ms_per_step"] = per_step("nn.relu_pool.bwd")
    m["nn.head.ms_per_step"] = per_step("nn.head")
    m["nn.im2col_bytes_per_step"] = (im2col / steps, "bytes")
    m["nn.adam_step.ms_per_step"] = per_call("nn.adam_step")
    m["nn.step_ms"] = (1e3 * s.total("nn.step", "") / steps, "ms")
    m["nn.evaluate.ms_per_clip"] = (1e3 * s.total("nn.evaluate") / s.work("nn.evaluate"), "ms")
    m["nn.predict.ms_per_clip"] = (1e3 * s.total("nn.predict") / s.work("nn.predict"), "ms")
    m["nn.init_model.ms"] = per_call("nn.init_model")
    m["nn.save_checkpoint.ms"] = per_call("nn.save_checkpoint")
    m["nn.load_checkpoint.ms"] = per_call("nn.load_checkpoint")
    m["dataset.parse_manifest.ms"] = per_call("dataset.parse_manifest")
    m["dataset.stratified_split.ms"] = per_call("dataset.stratified_split")
    m["metrics.build_eval_report.ms"] = per_call("metrics.build_eval_report")

    # Coverage: the processes doing the work are the extract workers (busy
    # while inside a clip) and the split/train/eval processes (inside main).
    # What no layer span covers is the self time of those root spans.
    others = [d for c, d in s.mains.items() if not c.startswith("extract")]
    busy = s.total("cli.extract_one") + sum(d["wall_s"] for d in others)
    unaccounted = s.self_time("cli.extract_one") + sum(d["stats"]["|cli.main"][2] for d in others)
    m["trace.unaccounted_pct"] = (100.0 * unaccounted / busy, "%")
    if unaccounted > 0.1 * busy:
        problems.append(f"trace: {unaccounted:.2f} s of {busy:.2f} s busy time is in no layer span")
    # Overhead over the single-process commands: the extract pool's speed
    # swings between invocations by far more than the spans cost.
    single = ("split", "train", "eval")
    plain = sum(untraced.walls[c] for c in single)
    spanned = sum(traced.walls[c] for c in single)
    m["trace.overhead_pct"] = (100.0 * (spanned - plain) / plain, "%")
    return m
