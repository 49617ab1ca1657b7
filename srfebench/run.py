"""The srfe benchmark: run one workload's srfe commands, check, report.

    python3 srfebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload renders its seeded clips, then runs the real command chain
`srfe extract --feature all`, `split`, `train --feature mel` and `eval`, each
as its own process with the program's defaults (one extract worker per core,
no BLAS thread setting).  Rounds of that chain repeat while another round
fits in S seconds, at least twice.  The outputs of every round
are checked (see checks.py).  The last line of standard output is one JSON
object: with --trace 0 the end-to-end metrics, with --trace 1 the per-layer
metrics of a traced round (see tracer.py) next to an untraced one.  Progress
goes to standard error.  See README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".srfebench-work"
# Every run must end within 180 s; commands still running at this point
# from the start are killed and count as failed.
DEADLINE_S = 170.0
TRAIN_FEATURE = "mel"
# Take letters of the set-up clip's two extra names.
SETUP_TAKES = ("-B-", "-C-")


@dataclass(frozen=True)
class Workload:
    rate: int  # sample rate the WAV files are written at
    classes: tuple  # class ids of the corpus, PER_CLASS clips each
    passes: int  # times a round extracts its corpus


# Both corpora cover all five categories and all five signal families, plus
# one clip under a second name.  At 44.1 kHz a clip costs about three times
# as much to extract, so that corpus has fewer classes and a run makes two
# or three rounds: `srfe split` makes 11 training and 5 validation clips of
# its 16, and 15 and 7 of the 22 at 22.05 kHz.  The extract pool's speed changes
# from one invocation to the next (README.md); at 22.05 kHz, where that
# swing is widest and an invocation is short, a round extracts its corpus
# three times, to average over enough invocations.
WORKLOADS = {
    "extract-44k": Workload(44100, (0, 10, 20, 30, 40), 1),
    "extract-22k": Workload(22050, (0, 1, 10, 20, 21, 30, 40), 3),
}
PER_CLASS = 3
EPOCHS = 2
# Clips per `srfe extract` invocation: two chunks of four, so both workers
# of the default two-core pool stay busy.
BATCH_CLIPS = 8
# Rounds a run makes even when they take longer than --seconds, so that
# every metric averages more than one invocation.
MIN_ROUNDS = 2


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


class Runner:
    """Runs srfe commands as child processes with a shared deadline."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        pythonpath = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, SRFE_LOG="warn",
                        PYTHONPATH=str(SRC) + (os.pathsep + pythonpath if pythonpath else ""))

    def run(self, argv: list[str], log_path: Path) -> tuple[bool, float, float]:
        """(exit code 0, wall seconds, CPU seconds of the whole process tree)."""
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        start = time.perf_counter()
        with open(log_path, "wb") as out:
            proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT, env=self.env,
                                    cwd=ROOT, start_new_session=True)
            try:
                proc.wait(timeout=max(1.0, self.deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                log(f"killed after the deadline: {' '.join(argv)}")
                _kill_group(proc)
            except BaseException:  # interrupted: leave no command running
                _kill_group(proc)
                raise
        wall = time.perf_counter() - start
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu = (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime)
        if proc.returncode != 0:
            log(f"exit {proc.returncode}: {' '.join(argv)}\n{log_path.read_text(errors='replace')[-2000:]}")
        return proc.returncode == 0, wall, cpu

    def srfe(self, args: list, log_path: Path, trace_prefix: Path | None = None):
        args = [str(a) for a in args]
        if trace_prefix is None:
            argv = [sys.executable, "-m", "srfe.cli", *args]
        else:
            argv = [sys.executable, str(HERE / "tracer.py"), str(trace_prefix), *args]
        return self.run(argv, log_path)


def _kill_group(proc: subprocess.Popen) -> None:
    """Kill the command and its extract workers, and wait until all have ended."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    for _ in range(100):
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


@dataclass
class Round:
    out: Path
    walls: dict = field(default_factory=dict)  # command -> wall seconds
    cpu: dict = field(default_factory=dict)  # command -> CPU seconds
    failed_items: int = 0
    problems: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failed_items and not self.problems


def split_sizes(clips) -> tuple[int, int]:
    """Training and validation clip counts `srfe split` must produce."""
    per_class: dict[int, int] = {}
    for clip in clips:
        per_class[clip.class_id] = per_class.get(clip.class_id, 0) + 1
    n_train = sum(round(checks.TRAIN_FRACTION * n) for n in per_class.values())
    return n_train, len(clips) - n_train


def batches(clips: list) -> list[list]:
    """Consecutive batches of at most BATCH_CLIPS clips, sizes within one."""
    k = -(-len(clips) // BATCH_CLIPS)
    bounds = [round(i * len(clips) / k) for i in range(k + 1)]
    return [clips[bounds[i] : bounds[i + 1]] for i in range(k)]


def extract_args(manifest: Path, audio_dir: Path, features: Path) -> list:
    return ["extract", "--feature", "all", "--audio-dir", audio_dir, "--manifest", manifest, "--out", features]


def train_eval_args(manifest: Path, out: Path, seed: int, epochs: int) -> list:
    """(name, arguments) of split, train and eval on `out`/features."""
    common = ["--feature", TRAIN_FEATURE, "--manifest", manifest, "--feature-dir", out / "features"]
    return [
        ("split", ["split", "--manifest", manifest, "--out", out / "split.json", "--seed", seed]),
        ("train", ["train", *common, "--split-file", out / "split.json", "--out", out / "model.srnn",
                   "--history-file", out / "history.csv", "--epochs", epochs, "--seed", seed]),
        ("eval", ["eval", *common, "--split-file", out / "split.json", "--checkpoint", out / "model.srnn",
                  "--out", out / "reports"]),
    ]


def run_round(runner: Runner, corpus_, out: Path, seed: int, passes: int, traced: bool = False) -> Round:
    """Extract the corpus `passes` times in batches, then split, train, and
    eval twice: on the validation split, and on every clip of the corpus.
    Training reads the first pass's images."""
    out.mkdir(parents=True)
    n_train, n_val = split_sizes(corpus_.clips)
    result = Round(out)

    def run(name, args, items, command):
        if result.failed_items:  # a failed command fails everything after it
            result.failed_items += items
            return False
        prefix = out / "trace" / name if traced else None
        if prefix is not None:
            prefix.parent.mkdir(exist_ok=True)
        ok, wall, cpu = runner.srfe(args, out / f"{name}.log", prefix)
        log(f"  {name}: {wall:.2f} s wall, {cpu:.2f} s CPU")
        result.walls[command] = result.walls.get(command, 0.0) + wall
        result.cpu[command] = result.cpu.get(command, 0.0) + cpu
        if not ok:
            result.failed_items += items
            result.problems.append(f"srfe {name} failed")
        return ok

    for p in range(passes):
        features = out / ("features" if p == 0 else f"features-pass{p}")
        for i, batch in enumerate(batches(corpus_.clips)):
            manifest = out / f"batch{i}.csv"
            corpus.write_manifest(manifest, batch)
            if run(f"extract{p}-{i}", extract_args(manifest, corpus_.audio_dir, features), len(batch), "extract"):
                # Each invocation rewrites the sidecars with its own clips.
                for kind in checks.KINDS:
                    result.problems += checks.check_feature_manifest(
                        features / kind / "manifest.jsonl", kind, batch)
    items = {"split": 0, "train": EPOCHS * n_train, "eval": n_val}
    for name, args in train_eval_args(corpus_.manifest, out, seed, EPOCHS):
        run(name, args, items[name], name)
    everything = out / "all.json"
    everything.write_text(json.dumps({"seed": seed, "train": [], "validation": [c.filename for c in corpus_.clips]}))
    run("eval-all", ["eval", "--feature", TRAIN_FEATURE, "--manifest", corpus_.manifest,
                     "--feature-dir", out / "features", "--split-file", everything,
                     "--checkpoint", out / "model.srnn", "--out", out / "reports-all"], len(corpus_.clips), "eval")
    if not result.failed_items:
        result.problems += check_round(corpus_, out, n_val)
        for p in range(1, passes):
            result.problems += checks.check_same_outputs(out / "features", out / f"features-pass{p}")
    return result


def check_round(corpus_, out: Path, n_val: int) -> list[str]:
    feats = out / "features"
    images, problems = checks.load_feature_images(feats, corpus_.clips)
    if not problems:
        problems += checks.check_known_content(images, corpus_.clips, corpus.midi_to_hz)
        problems += checks.check_duplicate(feats, *corpus_.duplicate)
    try:
        split = json.loads((out / "split.json").read_text())
        history = checks.read_history(out / "history.csv")
        report = json.loads((out / "reports" / f"{TRAIN_FEATURE}_report.json").read_text())
        report_all = json.loads((out / "reports-all" / f"{TRAIN_FEATURE}_report.json").read_text())
    except (OSError, ValueError, KeyError) as exc:
        return problems + [f"unreadable train/eval output: {exc}"]
    problems += checks.check_split(split, corpus_.clips)
    problems += checks.check_history(history, EPOCHS)
    problems += checks.check_report(report, history, n_val)
    problems += checks.check_report(report_all, [], len(corpus_.clips))
    return problems


def check_resampler(corpus_) -> list[str]:
    """The resampled 44.1 kHz file against the clip rendered at 22.05 kHz,
    for one tone and one chirp that does not end in silence."""
    from srfe.audio import load_wav, resample

    picks = {}
    for clip in corpus_.clips:
        if clip.family in ("tone", "chirp") and "silence_s" not in clip.params:
            picks.setdefault(clip.family, clip)
    problems = []
    for clip in picks.values():
        got = resample(load_wav(corpus_.audio_dir / clip.filename), checks.SAMPLE_RATE).samples
        snr = checks.resample_snr_db(got, corpus.render(clip, checks.SAMPLE_RATE))
        log(f"resample SNR {clip.stem} ({clip.family}): {snr:.1f} dB")
        if snr < checks.MIN_RESAMPLE_SNR_DB:
            problems.append(f"{clip.stem}: resampled SNR {snr:.1f} dB < {checks.MIN_RESAMPLE_SNR_DB} dB")
    return problems


def measure_setup(runner: Runner, wl: Workload, seed: int, out: Path) -> tuple[float, list[str]]:
    """Wall time of the command chain on the smallest input: one clip,
    extracted once; its mel image under three names gives the two training
    clips and one validation clip that `split` makes of a three-clip class.
    Training runs one epoch."""
    clip = corpus.make_clips(seed, 1, wl.classes)[0]
    one = corpus.build(out / "input", [clip], wl.rate)
    names = [clip] + [corpus.renamed(clip, take) for take in SETUP_TAKES]
    manifest = out / "three.csv"
    corpus.write_manifest(manifest, names)
    ok, total, _ = runner.srfe(extract_args(one.manifest, one.audio_dir, out / "features"), out / "extract.log")
    if not ok:
        return total, ["set-up: srfe extract failed"]
    mel = out / "features" / TRAIN_FEATURE
    for twin in names[1:]:
        shutil.copyfile(mel / f"{clip.stem}.srf", mel / f"{twin.stem}.srf")
    for name, args in train_eval_args(manifest, out, seed, 1):
        ok, wall, _ = runner.srfe(args, out / f"{name}.log")
        total += wall
        if not ok:
            return total, [f"set-up: srfe {name} failed"]
    return total, []


def untraced_metrics(rounds: list[Round], corpus_, wl: Workload, setup_s: float) -> dict:
    """End-to-end metrics: each command's items over its wall time, summed
    over the rounds."""
    n_train, n_val = split_sizes(corpus_.clips)

    def rate(items, command):
        return items * len(rounds) / sum(r.walls.get(command, float("inf")) for r in rounds)

    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {
        "extract_clips_per_s": (rate(wl.passes * len(corpus_.clips), "extract"), "clips/s"),
        "train_samples_per_s": (rate(EPOCHS * n_train, "train"), "samples/s"),
        "eval_clips_per_s": (rate(n_val + len(corpus_.clips), "eval"), "clips/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    wl = WORKLOADS[name]
    runner = Runner(time.monotonic() + DEADLINE_S)
    corpus_ = corpus.build(work / "input", corpus.make_clips(seed, PER_CLASS, wl.classes), wl.rate)
    n_train, n_val = split_sizes(corpus_.clips)
    log(f"{name} seed {seed}: {len(corpus_.clips)} clips at {wl.rate} Hz, "
        f"{n_train} train / {n_val} validation, {EPOCHS} epochs")
    problems = check_resampler(corpus_) if wl.rate != checks.SAMPLE_RATE else []

    if trace:
        plain = run_round(runner, corpus_, work / "untraced", seed, wl.passes)
        rounds = [plain]
        if not plain.failed_items:
            traced = run_round(runner, corpus_, work / "traced", seed, wl.passes, traced=True)
            rounds.append(traced)
            problems += checks.check_same_outputs(plain.out, traced.out)
    else:
        setup_s, setup_problems = measure_setup(runner, wl, seed, work / "setup")
        problems += setup_problems
        log(f"setup_s {setup_s:.3f}")
        rounds = []
        start = time.monotonic()
        while True:
            r = run_round(runner, corpus_, work / f"round{len(rounds)}", seed, wl.passes)
            rounds.append(r)
            log(f"round {len(rounds)}: " + ", ".join(f"{k} {v:.2f}s" for k, v in r.walls.items()))
            took = time.monotonic() - start
            next_end = took + took / len(rounds)
            if not r.ok or start + next_end > runner.deadline:
                break
            if len(rounds) >= MIN_ROUNDS and next_end > seconds:
                break
            shutil.rmtree(r.out)
    for r in rounds:
        problems += r.problems
    per_round = (wl.passes + 1) * len(corpus_.clips) + EPOCHS * n_train + n_val
    failed = sum(r.failed_items for r in rounds)
    if trace:
        metrics = tracer.layer_metrics(rounds[0], rounds[1], problems) if not failed else {}
    else:
        metrics = untraced_metrics(rounds, corpus_, wl, setup_s)
    for p in problems:
        log(f"CHECK FAILED: {p}")
    return {
        "correct": not problems,
        "attempted": per_round * len(rounds),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "srfe" / "cli.py").is_file():
        log(f"no srfe sources under {SRC}; run from a checkout of the repository")
        return 2

    work = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    # A terminated run still stops its commands and removes its files.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run still uses it
    print(json.dumps(result))
    return 0 if result["correct"] and not result["failed"] else 1


if __name__ == "__main__":
    sys.path[:0] = [str(HERE), str(SRC)]
    import checks  # noqa: E402 - the benchmark's own modules, beside this file
    import corpus  # noqa: E402
    import tracer  # noqa: E402

    sys.exit(main())
