"""Tests of the benchmark itself: inputs, span arithmetic, names, one tiny run."""

import importlib.util
import json
import re
import resource
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import sparsetuple
from sparsetuple.dataio import serialize_svmlight

import harness
import tracing
from workloads import WORKLOADS, make_inputs

ROOT = Path(__file__).resolve().parent.parent
SRC = Path(sparsetuple.__file__).resolve().parent.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY = replace(
    WORKLOADS["f1_imbalanced"], name="tiny", n_train=60, n_heldout=30, d=4,
    flags=("--measure", "f1", "--iters", "3"), folds=2,
)


def test_inputs_depend_only_on_the_seed():
    assert make_inputs(TINY, 3) == make_inputs(TINY, 3)
    assert make_inputs(TINY, 3)["heldout"] != make_inputs(TINY, 4)["heldout"]
    # The training draw is fixed; only the held-out file follows the seed.
    assert make_inputs(TINY, 3)["train"] == make_inputs(TINY, 4)["train"]


def test_gate_train_file_is_the_acceptance_gate_file():
    spec = importlib.util.spec_from_file_location("acceptance_conftest",
                                                  ROOT / "tests" / "conftest.py")
    conftest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(conftest)
    # tests/test_acceptance.py writes its gate file from exactly this call.
    expected = serialize_svmlight(
        conftest.make_gaussian_dataset(seed=12345, n=200, d=10, separation=1.5))
    for seed in (1, 2):
        assert make_inputs(WORKLOADS["gate"], seed)["train"] == expected


def test_self_time_is_duration_minus_direct_children():
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))
    with tracer.command_span("train"):  # 0 .. 9
        with tracer.span("outer"):  # 1 .. 8
            with tracer.span("inner"):  # 2 .. 3
                pass
            with tracer.span("inner"):  # 4 .. 7
                with tracer.span("leaf"):  # 5 .. 6
                    pass
    own = tracing.self_times(tracer.spans)
    assert [own[span["id"]] for span in tracer.spans] == [9 - 7, 7 - 1 - 3, 1, 3 - 1, 1]
    assert [span["parent"] for span in tracer.spans] == [None, 0, 1, 1, 3]
    assert {span["command"] for span in tracer.spans} == {"train"}
    assert tracing.command_layer_seconds(tracer.spans) == {"train": 7.0}


def test_benchmark_json_names_the_workloads_with_valid_names_and_units():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    names = [m["name"] for group in ("workloads", "end_to_end", "per_layer")
             for m in SPEC[group]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert all(UNIT.fullmatch(m["unit"]) for m in SPEC["end_to_end"] + SPEC["per_layer"])


def test_child_peak_rss_is_the_childs_own(tmp_path):
    ballast = np.ones(150_000_000 // 8)  # this process now peaks above 150 MB
    runner = harness.Runner(SRC, tmp_path, time.monotonic() + 60, harness.Tally())
    try:
        child = runner.run("--help")
    finally:
        runner.close()
    own_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    assert ballast[-1] == 1.0 and own_mb > 150
    assert child.rss_mb < 100


@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_checks_outputs_and_reports_every_metric(tmp_path, trace):
    inputs = {role: tmp_path / f"{role}.svm" for role in ("train", "heldout")}
    for role, text in make_inputs(TINY, 5).items():
        inputs[role].write_text(text)
    tally, metrics, _ = harness.run_workload(
        TINY, inputs, tmp_path, SRC, seconds=0, trace=trace, deadline=time.monotonic() + 120)
    assert tally.reasons == []
    assert tally.failed == 0
    # run.py reports exactly the metrics BENCHMARK.json names.
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert set(metrics) == {m["name"] for m in expected}
