"""Runs one workload: the CLI end to end, or the traced in-process chain.

The end-to-end run (``trace=False``) repeats rounds of CLI processes, each
started as a user would start it, and reports the median of each command's
wall time and peak RSS across rounds.  The traced run (``trace=True``) runs
one such CLI round, then repeats the same commands in this process with
every layer call wrapped in a span (see ``tracing.py``) next to an untraced
in-process ``fit``, and reports per-layer medians.  Both runs check every
output the program writes.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from sparsetuple import cli
from sparsetuple.trainer import ModelFormatError, load_model

import tracing
from workloads import Workload

LAUNCHER = Path(__file__).resolve().parent / "launcher.py"

# `--help` runs before the measured rounds; the first one is a warm-up that
# lets the interpreter write its bytecode caches, which users pay only once.
SETUP_REPEATS = 3
MEASURES = ("f1", "prbep", "auc")
COMMANDS = ("train", "predict", "eval", "cv")


class Failure(Exception):
    """A command exited non-zero or one of its outputs failed a check."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise Failure(message)


@dataclass
class Completed:
    seconds: float
    rss_mb: float
    stdout: str


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    reasons: list[str] = field(default_factory=list)


class Runner:
    """Runs CLI processes one at a time through ``launcher.py``.

    The launcher is a small stdlib-only interpreter, so a child's peak RSS,
    which Linux starts at the peak of the image its ``exec`` replaced, starts
    from the launcher's few MB rather than from this process's.
    """

    def __init__(self, src: Path, workdir: Path, deadline: float, tally: Tally):
        self.workdir = workdir
        self.deadline = deadline
        self.tally = tally
        self.launcher = subprocess.Popen(
            [sys.executable, "-I", str(LAUNCHER)], cwd=workdir,
            env={**os.environ, "PYTHONPATH": str(src)},
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def close(self) -> None:
        self.launcher.stdin.close()
        try:
            self.launcher.wait(timeout=max(self.deadline - time.monotonic(), 1.0))
        except subprocess.TimeoutExpired:
            self.launcher.kill()
            self.launcher.wait()
        self.launcher.stdout.close()

    def run(self, *args: str) -> Completed:
        self.tally.attempted += 1
        out_path, err_path = self.workdir / "stdout.txt", self.workdir / "stderr.txt"
        self.launcher.stdin.write(json.dumps({
            "argv": [sys.executable, "-m", "sparsetuple.cli", *args],
            "stdout": str(out_path), "stderr": str(err_path),
            "timeout": self.deadline - time.monotonic(),
        }) + "\n")
        self.launcher.stdin.flush()
        reply = self.launcher.stdout.readline()
        expect(bool(reply), f"the launcher exited while running {args[0]}")
        reply = json.loads(reply)
        code = os.waitstatus_to_exitcode(reply["status"])
        stderr = err_path.read_text(encoding="utf-8", errors="replace").strip()
        expect(code == 0, f"{args[0]} exited {code}: {stderr[-500:]}")
        # ru_maxrss is in KiB on Linux.
        return Completed(reply["seconds"], reply["maxrss_kb"] * 1024 / 1e6,
                         out_path.read_text(encoding="utf-8"))


# ---------------------------------------------------------------- checks


def check_model(blob: bytes, workload: Workload) -> float:
    """Validate a model file; returns max(1, largest ||d_j||^2 / c)."""
    try:
        model = load_model(blob)
    except ModelFormatError as exc:
        raise Failure(f"model does not load: {exc}") from None
    expect(model.dictionary.m == workload.dict_size,
           f"model has m={model.dictionary.m}, expected {workload.dict_size}")
    elements = model.dictionary.elements
    column_sq = np.sum(elements * elements, axis=0)
    return max(1.0, float(column_sq.max()) / model.dictionary.norm_cap)


def check_predictions(text: str, n: int) -> None:
    lines = text.splitlines()
    expect(len(lines) == n, f"{len(lines)} prediction lines for {n} held-out points")
    for line in lines:
        parts = line.split("\t")
        expect(len(parts) == 3 and parts[2] in ("+1", "-1"), f"bad prediction line {line!r}")
        try:
            score = float(parts[1])
        except ValueError:
            raise Failure(f"bad prediction score {line!r}") from None
        expect(math.isfinite(score), f"non-finite prediction score {line!r}")


def check_eval(text: str) -> dict[str, float]:
    values = {}
    for line in text.splitlines():
        name, _, value = line.partition(" ")
        try:
            values[name] = float(value)
        except ValueError:
            raise Failure(f"bad eval line {line!r}") from None
    expect(set(values) == set(MEASURES), f"eval printed {sorted(values)}")
    for name, value in values.items():
        expect(0.0 <= value <= 1.0, f"eval {name}={value} outside [0, 1]")
    return values


def check_cv(text: str, workload: Workload) -> dict[str, float]:
    try:
        summary = json.loads(text)["summary"]
        medians = {name: float(summary[name]["median"]) for name in ("f1", "auc")}
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        raise Failure(f"malformed cv report: {exc!r}") from None
    for name, value in medians.items():
        expect(0.0 <= value <= 1.0, f"cv median {name}={value} outside [0, 1]")
    for name, threshold in workload.cv_thresholds:
        expect(medians[name] >= threshold,
               f"cv median {name}={medians[name]} below the gate's {threshold}")
    return medians


# ---------------------------------------------------------------- rounds


@dataclass
class Files:
    train: Path
    heldout: Path
    model: Path
    predictions: Path
    report: Path

    @classmethod
    def in_dir(cls, inputs: dict[str, Path], directory: Path) -> "Files":
        return cls(inputs["train"], inputs["heldout"], directory / "model.json",
                   directory / "predictions.tsv", directory / "cv.json")


def command_args(workload: Workload, files: Files) -> dict[str, list[str]]:
    """The argument lists of one round, in the order a user runs them."""
    return {
        "train": ["train", "--data", str(files.train), "--out", str(files.model),
                  *workload.flags],
        "predict": ["predict", "--model", str(files.model), "--data", str(files.heldout),
                    "--out", str(files.predictions)],
        "eval": ["eval", "--predictions", str(files.predictions), "--truth", str(files.heldout)],
        "cv": ["cv", "--data", str(files.train), "--k", str(workload.folds),
               "--out", str(files.report), *workload.flags],
    }


@dataclass
class Outputs:
    """What one round's commands wrote; equal across rounds of one run."""

    model: bytes
    predictions: bytes
    scores: dict[str, float]
    cv_medians: dict[str, float]


def check_outputs(workload: Workload, files: Files, eval_stdout: str) -> tuple[Outputs, float]:
    model = files.model.read_bytes()
    cap_ratio = check_model(model, workload)
    predictions = files.predictions.read_bytes()
    check_predictions(predictions.decode("utf-8"), workload.n_heldout)
    scores = check_eval(eval_stdout)
    cv_medians = check_cv(files.report.read_text(encoding="utf-8"), workload)
    return Outputs(model, predictions, scores, cv_medians), cap_ratio


def cli_round(runner: Runner, workload: Workload, files: Files) -> tuple[dict, Outputs, float]:
    """One ``--help``, train, predict, eval, cv; returns timings and outputs."""
    samples = {"setup_s": runner.run("--help").seconds}
    results = {name: runner.run(*args) for name, args in command_args(workload, files).items()}
    for name, result in results.items():
        samples[f"{name}_s"] = result.seconds
    samples["train_rss_mb"] = results["train"].rss_mb
    samples["predict_rss_mb"] = results["predict"].rss_mb
    outputs, cap_ratio = check_outputs(workload, files, results["eval"].stdout)
    return samples, outputs, cap_ratio


def in_process(args: list[str]) -> int:
    """``cli.main(args)``; an exception that escapes it is a failed command."""
    try:
        return cli.main(args)
    except Exception as exc:
        raise Failure(f"in-process {args[0]} raised {exc!r}") from exc


def traced_round(workload: Workload, files: Files, tally: Tally) -> tuple[tracing.Tracer, Outputs]:
    """The round's commands through ``cli.main`` in this process, traced."""
    tracer = tracing.Tracer()
    eval_stdout = io.StringIO()
    with tracing.installed(tracer):
        for name, args in command_args(workload, files).items():
            tally.attempted += 1
            sink = eval_stdout if name == "eval" else io.StringIO()
            with tracer.command_span(name), contextlib.redirect_stdout(sink):
                code = in_process(args)
            expect(code == 0, f"in-process {name} returned {code}")
    outputs, _ = check_outputs(workload, files, eval_stdout.getvalue())
    return tracer, outputs


def untraced_fit_seconds(workload: Workload, files: Files, tally: Tally) -> float:
    """In-process ``train`` with only ``fit`` timed, for the tracing overhead."""
    seconds = []
    original = cli.fit

    def timed_fit(*args, **kwargs):
        started = time.perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            seconds.append(time.perf_counter() - started)

    tally.attempted += 1
    cli.fit = timed_fit
    try:
        code = in_process(command_args(workload, files)["train"])
    finally:
        cli.fit = original
    expect(code == 0, f"in-process train returned {code}")
    return seconds[0]


def expect_same(first: Outputs, later: Outputs, what: str) -> None:
    expect(later.model == first.model, f"{what}: model bytes differ from the first CLI train")
    expect(later.predictions == first.predictions, f"{what}: predictions differ")
    expect(later.scores == first.scores, f"{what}: eval output differs")
    expect(later.cv_medians == first.cv_medians, f"{what}: cv medians differ")


def medians(samples: list[dict]) -> dict[str, float]:
    return {key: statistics.median(sample[key] for sample in samples) for key in samples[0]}


class Window:
    """The measured window: a round starts only if it should end inside it."""

    def __init__(self, seconds: float):
        self.seconds = seconds
        self.started = time.perf_counter()
        self.longest = 0.0
        self.rounds = 0

    @contextlib.contextmanager
    def round(self):
        started = time.perf_counter()
        yield
        self.longest = max(self.longest, time.perf_counter() - started)
        self.rounds += 1

    def open(self) -> bool:
        elapsed = time.perf_counter() - self.started
        return self.rounds == 0 or elapsed + self.longest <= self.seconds


def measure_cli(runner: Runner, workload: Workload, files: Files, window: Window,
                setup: list[float]) -> tuple[dict, dict]:
    """End-to-end metrics: medians over repeated CLI rounds."""
    samples = []
    first = cap_ratio = None
    while window.open():
        with window.round():
            sample, outputs, cap = cli_round(runner, workload, files)
        if first is None:
            first, cap_ratio = outputs, cap
        else:
            expect_same(first, outputs, "repeated CLI round")
        setup.append(sample.pop("setup_s"))
        samples.append(sample)
    metrics = {
        "setup_s": statistics.median(setup),
        **medians(samples),
        **first.scores,
        "cv_f1_median": first.cv_medians["f1"],
        "cv_auc_median": first.cv_medians["auc"],
        "cap_ratio": cap_ratio,
    }
    return metrics, {"setup_s": setup, "rounds": samples}


def measure_traced(runner: Runner, workload: Workload, files: Files, window: Window,
                   setup: list[float], tally: Tally) -> tuple[dict, dict]:
    """Per-layer metrics: one untraced CLI round, then repeated traced rounds.

    ``cli.overhead_s`` combines the two: each command's CLI wall time minus
    the setup time and minus the layer calls the traced run saw it make.
    """
    walls, first, _ = cli_round(runner, workload, files)
    setup.append(walls.pop("setup_s"))
    setup_s = statistics.median(setup)
    samples = []
    while window.open():
        with window.round():
            tracer, outputs = traced_round(workload, files, tally)
            expect_same(first, outputs, "traced run")
            sample = tracing.layer_metrics(tracer)
            layer_seconds = tracing.command_layer_seconds(tracer.spans)
            sample["cli.overhead_s"] = sum(
                walls[f"{name}_s"] - setup_s - layer_seconds[name] for name in COMMANDS)
            sample["trace.fit_overhead_s"] = (
                sample["trainer.fit_s"] - untraced_fit_seconds(workload, files, tally))
        samples.append(sample)
    # Spans of the last round only: a gate round alone records ~27,000.
    return medians(samples), {"setup_s": setup, "cli_round": walls, "rounds": samples,
                              "spans": tracer.spans, "events": tracer.events}


def run_workload(workload: Workload, inputs: dict[str, Path], workdir: Path, src: Path,
                 seconds: float, trace: bool, deadline: float) -> tuple[Tally, dict, dict]:
    """Measure one workload; returns the tally, the metrics and the raw record."""
    tally = Tally()
    runner = Runner(src, workdir, deadline, tally)
    files = Files.in_dir(inputs, workdir)
    metrics: dict = {}
    record: dict = {}
    try:
        runner.run("--help")
        setup = [runner.run("--help").seconds for _ in range(SETUP_REPEATS)]
        window = Window(seconds)
        if trace:
            metrics, record = measure_traced(runner, workload, files, window, setup, tally)
        else:
            metrics, record = measure_cli(runner, workload, files, window, setup)
    except Failure as exc:
        tally.failed += 1
        tally.reasons.append(str(exc))
    finally:
        runner.close()
    if not trace:
        metrics["success_rate"] = (tally.attempted - tally.failed) / tally.attempted
    return tally, metrics, record
