import argparse
import json
import os
import re
import subprocess
import sys
import threading
import tracemalloc
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from sparsetuple import dataio, sparse_coding
from sparsetuple.cli import (
    _LINES_PER_WRITE, SWEEP_HEADER, _add_config_flags, _score, build_parser, cross_validate, main,
)
from sparsetuple.dataio import Dataset, kfold_split, parse_svmlight, serialize_svmlight
from sparsetuple.hyperloss import point_scores, predict
from sparsetuple.measures import auc_from_scores
from sparsetuple.trainer import TrainConfig, encode, fit, load_model, save_model

from conftest import MODEL_V1, MODEL_V2, make_gaussian_dataset


@pytest.fixture(scope="module")
def data_file(tmp_path_factory):
    ds = make_gaussian_dataset(seed=202, n=60, d=5)
    path = tmp_path_factory.mktemp("data") / "train.svm"
    path.write_text(serialize_svmlight(ds))
    return path, ds


def train_flags(data_path, out_path, **overrides):
    flags = {
        "--data": str(data_path),
        "--out": str(out_path),
        "--measure": "f1",
        "--c1": "0.1",
        "--c2": "0.01",
        "--c3": "1.0",
        "--iters": "20",
        "--dict-size": "6",
        "--seed": "7",
    }
    flags.update({k: str(v) for k, v in overrides.items()})
    argv = ["train"]
    for key, value in flags.items():
        argv += [key, value]
    return argv


class TestConfigFlags:
    @pytest.mark.parametrize("command", ["train", "cv", "sweep"])
    def test_flags_match_train_config_fields(self, command):
        bare = argparse.ArgumentParser(add_help=False)
        _add_config_flags(bare)
        config_flags = {action.dest: action.option_strings for action in bare._actions}
        assert sorted(config_flags) == sorted(f.name for f in fields(TrainConfig))
        subparser = build_parser()._subparsers._group_actions[0].choices[command]
        flags = {action.dest: action.option_strings for action in subparser._actions}
        assert {dest: flags.get(dest) for dest in config_flags} == config_flags

    def test_flags_of_every_subcommand(self):
        data = ("data", ("--data",), None, True, None)
        fmt = ("format", ("--format",), "auto", False, ("auto", "svmlight", "csv"))
        config = {
            ("measure", ("--measure",), "f1", False, ("f1", "prbep", "auc")),
            ("c1", ("--c1",), 0.1, False, None),
            ("c2", ("--c2",), 0.01, False, None),
            ("c3", ("--c3",), 1.0, False, None),
            ("eta", ("--eta",), 0.01, False, None),
            ("iters", ("--iters",), 100, False, None),
            ("dict_size", ("--dict-size",), None, False, None),
            ("norm_cap", ("--norm-cap",), 1.0, False, None),
            ("seed", ("--seed",), 0, False, None),
        }
        folds = {
            ("k", ("--k",), 10, False, None),
            ("stratified", ("--stratified",), False, False, None),
            ("jobs", ("--jobs",), None, False, None),
        }
        expected = {
            "train": {data, fmt, *config, ("out", ("--out",), None, True, None),
                      ("trace", ("--trace",), None, False, None)},
            "predict": {data, fmt, ("model", ("--model",), None, True, None),
                        ("out", ("--out",), "-", False, None)},
            "eval": {fmt, ("predictions", ("--predictions",), None, True, None),
                     ("truth", ("--truth",), None, True, None),
                     ("measure", ("--measure",), None, False, ("f1", "prbep", "auc"))},
            "cv": {data, fmt, *config, *folds, ("out", ("--out",), "-", False, None),
                   ("omit_timing", ("--omit-timing",), False, False, None)},
            "sweep": {data, fmt, *config, *folds, ("out", ("--out",), "-", False, None),
                      *((f"c{i}_grid", (f"--c{i}-grid",), None, True, None) for i in (1, 2, 3))},
        }
        choices = build_parser()._subparsers._group_actions[0].choices
        assert set(choices) == set(expected)
        for command, flags in expected.items():
            actual = {(action.dest, tuple(action.option_strings), action.default,
                       action.required, None if action.choices is None else tuple(action.choices))
                      for action in choices[command]._actions if action.dest != "help"}
            assert actual == flags, command

    @pytest.mark.parametrize("flag", ["--eta-backoff", "--eps", "--dual-steps"])
    def test_retired_flags_exit_2(self, data_file, tmp_path, flag):
        data_path, _ = data_file
        with pytest.raises(SystemExit) as info:
            main(train_flags(data_path, tmp_path / "m.json") + [flag, "1"])
        assert info.value.code == 2
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("command", ["cv", "sweep"])
    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_exits_2(self, data_file, tmp_path, capsys, command, jobs):
        data_path, _ = data_file
        out = tmp_path / "out"
        argv = [command, "--data", str(data_path), "--out", str(out), "--jobs", jobs,
                "--k", "3", "--iters", "2", "--dict-size", "3"]
        if command == "sweep":
            argv += ["--c1-grid", "0.1", "--c2-grid", "0.01", "--c3-grid", "1.0"]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: jobs must be >= 1, got {jobs}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "cv", "sweep"])
    def test_negative_seed_exits_2(self, data_file, tmp_path, capsys, command):
        # random.Random(-s) would silently repeat the stream of seed s.
        data_path, _ = data_file
        out = tmp_path / "out"
        argv = [command, "--data", str(data_path), "--out", str(out), "--seed", "-1",
                "--iters", "2", "--dict-size", "3"]
        if command == "sweep":
            argv += ["--c1-grid", "0.1", "--c2-grid", "0.01", "--c3-grid", "1.0"]
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
        assert not out.exists()

    def test_cv_and_sweep_document_jobs_alike(self):
        choices = build_parser()._subparsers._group_actions[0].choices
        helps = {command: next(action.help for action in choices[command]._actions
                               if action.dest == "jobs")
                 for command in ("cv", "sweep")}
        assert helps["cv"] == helps["sweep"]
        assert "default: the CPUs this process may use" in helps["cv"]


def test_multiprocessing_is_loaded_only_to_start_workers(data_file, tmp_path):
    # Two folds get no workers by default; --jobs 2 over four folds starts two.
    data_path, _ = data_file
    script = (
        "import sys\n"
        "from sparsetuple.cli import main\n"
        "def loaded():\n"
        "    print(any(name.split('.')[0] in ('concurrent', 'multiprocessing')\n"
        "              for name in sys.modules))\n"
        "loaded()\n"
        "main(sys.argv[1:] + ['--k', '2'])\n"
        "loaded()\n"
        "main(sys.argv[1:] + ['--k', '4', '--jobs', '2'])\n"
        "loaded()\n"
    )
    argv = ["cv", "--data", str(data_path), "--out", str(tmp_path / "report.json"),
            "--iters", "2", "--dict-size", "3"]
    src = Path(__file__).resolve().parent.parent / "src"
    printed = subprocess.run(
        [sys.executable, "-c", script, *argv], env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, check=True,
    ).stdout.split()
    assert printed == ["False", "False", "True"]


def test_training_commands_leave_numpy_random_unloaded(data_file, tmp_path):
    # Seeded draws come from the stdlib generator, so train and in-process cv
    # import neither numpy.random nor, through it, secrets and OpenSSL. NumPy
    # 1.x imports numpy.random with numpy itself, so only modules that a bare
    # `import numpy` leaves unloaded are checked.
    data_path, _ = data_file
    script = (
        "import sys\n"
        "import numpy\n"
        "watched = {'numpy.random', 'secrets', '_hashlib'} - set(sys.modules)\n"
        "from sparsetuple.cli import main\n"
        "flags = ['--data', sys.argv[1], '--iters', '2', '--dict-size', '3']\n"
        "print(main(['train', *flags, '--out', sys.argv[2]]),\n"
        "      main(['cv', *flags, '--k', '2', '--jobs', '1', '--out', sys.argv[3]]))\n"
        "print(sorted(watched & set(sys.modules)))\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    printed = subprocess.run(
        [sys.executable, "-c", script, str(data_path), str(tmp_path / "m.json"),
         str(tmp_path / "report.json")], env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, check=True,
    ).stdout
    assert printed == "0 0\n[]\n"


class TestTrain:
    def test_writes_model_and_trace(self, data_file, tmp_path):
        data_path, _ = data_file
        model_path = tmp_path / "model.json"
        trace_path = tmp_path / "trace.csv"
        rc = main(train_flags(data_path, model_path) + ["--trace", str(trace_path)])
        assert rc == 0
        document = json.loads(model_path.read_text())
        assert document["schema_version"] == 2
        assert len(document["trace"]) == 20
        trace_rows = trace_path.read_text().strip().split("\n")
        assert len(trace_rows) == 21  # header + one row per iteration
        names = ["reconstruction", "sparsity", "complexity", "surrogate", "objective"]
        assert trace_rows[0] == ",".join(["iteration"] + names)
        last = document["trace"][19]
        assert trace_rows[20] == ",".join(["19"] + [repr(last[name]) for name in names])

    def test_trace_dash_writes_the_csv_to_stdout(self, data_file, tmp_path, capsys, monkeypatch):
        data_path, _ = data_file
        trace_path = tmp_path / "trace.csv"
        assert main(train_flags(data_path, tmp_path / "a.json") + ["--trace", str(trace_path)]) == 0
        assert capsys.readouterr().out == ""
        monkeypatch.chdir(tmp_path)
        assert main(train_flags(data_path, tmp_path / "b.json") + ["--trace", "-"]) == 0
        assert capsys.readouterr().out == trace_path.read_bytes().decode("utf-8")
        assert not (tmp_path / "-").exists()

    def test_out_dash_writes_the_model_to_stdout(self, data_file, tmp_path, capsys, monkeypatch):
        data_path, _ = data_file
        monkeypatch.chdir(tmp_path)
        assert main(train_flags(data_path, "model.json")) == 0
        assert capsys.readouterr().out == ""
        assert main(train_flags(data_path, "-")) == 0
        assert capsys.readouterr().out.encode("utf-8") == (tmp_path / "model.json").read_bytes()
        assert not (tmp_path / "-").exists()

    def test_rerun_is_byte_identical(self, data_file, tmp_path):
        data_path, _ = data_file
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        assert main(train_flags(data_path, first)) == 0
        assert main(train_flags(data_path, second)) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_degenerate_class_exits_2(self, tmp_path, capsys):
        path = tmp_path / "allpos.svm"
        path.write_text("+1 1:1.0\n+1 1:2.0\n+1 1:3.0\n")
        rc = main(train_flags(path, tmp_path / "m.json", **{"--measure": "prbep",
                                                            "--dict-size": "2"}))
        assert rc == 2
        assert "degenerate class" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", ["0", "1", "2"])
    def test_singular_gram_exits_2_naming_its_remedies(self, tmp_path, capsys, seed):
        # Two distinct points, three copies each: at c1 = 0 the codes of six
        # elements leave their Gram matrix singular.  Either remedy trains.
        path = tmp_path / "two_points.svm"
        path.write_text("+1 1:1 2:0.5\n" * 3 + "-1 1:-1 2:-0.5\n" * 3)
        argv = ["train", "--data", str(path), "--out", str(tmp_path / "m.json"), "--iters", "20",
                "--seed", seed]
        assert main(argv + ["--dict-size", "6", "--c1", "0"]) == 2
        assert capsys.readouterr().err == (
            "error: code Gram matrix plus multiplier diagonal is singular; "
            "use fewer dictionary elements or a sparsity weight c1 > 0\n")
        assert main(argv + ["--dict-size", "2", "--c1", "0"]) == 0
        assert main(argv + ["--dict-size", "6"]) == 0

    def test_parse_error_exits_1(self, tmp_path, capsys):
        path = tmp_path / "bad.svm"
        path.write_text("+1 2:1 1:1\n")
        rc = main(train_flags(path, tmp_path / "m.json"))
        assert rc == 1
        assert "error" in capsys.readouterr().err

    def test_absurd_feature_index_exits_1_with_its_line(self, tmp_path, capsys):
        path = tmp_path / "huge.svm"
        path.write_text("+1 1:1\n-1 99999999999999999999:1\n")
        assert main(train_flags(path, tmp_path / "m.json")) == 1
        assert capsys.readouterr().err.startswith("error: line 2: feature index")

    def test_non_utf8_data_exits_1_with_its_line(self, tmp_path, capsys):
        path = tmp_path / "bad.svm"
        path.write_bytes(b"+1 1:0.5\n-1 1:\xff\n")
        assert main(train_flags(path, tmp_path / "m.json")) == 1
        assert capsys.readouterr().err == (
            "error: line 2: byte 0xff is not UTF-8 (invalid start byte)\n")

    def test_missed_dual_ascent_warns(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "gate.svm"
        path.write_text(serialize_svmlight(make_gaussian_dataset()))
        # With train_flags' other values, the acceptance gate's configuration.
        gate = {"--iters": 100, "--dict-size": 20}
        model_path = tmp_path / "gate.json"
        # One Newton step cannot meet the tolerance from the initial multipliers.
        ascent = sparse_coding.dual_ascent_alphas
        with monkeypatch.context() as patch:
            patch.setattr(sparse_coding, "dual_ascent_alphas",
                          lambda *args: ascent(*args, steps=1))
            assert main(train_flags(path, model_path, **gate)) == 0
        assert re.fullmatch(
            r"warning: dual ascent missed the norm cap's KKT tolerance in [1-9]\d* of "
            r"100 iterations; "
            r"largest squared column norm is \d+\.\d{4} x --norm-cap\n",
            capsys.readouterr().err,
        )
        assert load_model(model_path.read_bytes()).ascent_converged is None
        loose = train_flags(path, tmp_path / "loose.json", **gate, **{"--norm-cap": "1e6"})
        assert main(loose) == 0
        assert capsys.readouterr().err == ""

    def test_cap_missed_on_two_repeated_points_is_never_silent(self, tmp_path, capsys):
        # The ascent stalls here (ROADMAP): the dictionary ends far outside the
        # cap.  Until that is mended, train must say so; once mended, the cap holds.
        path, model_path = tmp_path / "two.svm", tmp_path / "two.json"
        path.write_text("+1 1:1 2:0.5\n" * 3 + "-1 1:-1 2:-0.5\n" * 3)
        assert main(["train", "--data", str(path), "--out", str(model_path), "--dict-size", "4",
                     "--c1", "0", "--iters", "20", "--seed", "1"]) == 0
        elements = load_model(model_path.read_bytes()).dictionary.elements
        within_cap = np.sum(elements * elements, axis=0).max() <= 1.0 + 1e-6
        err = capsys.readouterr().err
        assert within_cap or re.fullmatch(
            r"warning: dual ascent missed the norm cap's KKT tolerance in [1-9]\d* of 20 "
            r"iterations; largest squared column norm is \d+\.\d{4} x --norm-cap\n", err), err

    def test_bad_config_exits_2(self, data_file, tmp_path):
        data_path, _ = data_file
        rc = main(train_flags(data_path, tmp_path / "m.json", **{"--eta": "0"}))
        assert rc == 2

    def test_missing_file_exits_1(self, tmp_path):
        rc = main(train_flags(tmp_path / "nope.svm", tmp_path / "m.json"))
        assert rc == 1


@pytest.fixture(scope="module")
def trained(data_file, tmp_path_factory):
    data_path, ds = data_file
    model_path = tmp_path_factory.mktemp("model") / "model.json"
    assert main(train_flags(data_path, model_path, **{"--iters": "50"})) == 0
    return data_path, ds, model_path


class TestPredict:
    def test_output_format_and_sign_rule(self, trained, tmp_path):
        data_path, ds, model_path = trained
        out = tmp_path / "preds.tsv"
        rc = main(["predict", "--model", str(model_path), "--data", str(data_path),
                   "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == ds.n
        for i, line in enumerate(lines):
            identifier, score, label = line.split("\t")
            assert identifier == str(i)
            score = float(score)
            label = int(label)
            assert label == (1 if score >= 0 else -1)

    def test_reproduces_training_labels(self, trained, tmp_path):
        data_path, ds, model_path = trained
        out = tmp_path / "preds.tsv"
        main(["predict", "--model", str(model_path), "--data", str(data_path),
              "--out", str(out)])
        labels = np.array([int(line.split("\t")[2])
                           for line in out.read_text().strip().split("\n")])
        agreement = np.mean(labels == ds.labels)
        assert agreement >= 0.9

    def test_empty_data_exits_1(self, trained, tmp_path, capsys):
        _, _, model_path = trained
        empty = tmp_path / "empty.svm"
        empty.write_text("")
        rc = main(["predict", "--model", str(model_path), "--data", str(empty),
                   "--out", str(tmp_path / "p.tsv")])
        assert rc == 1
        assert "empty dataset" in capsys.readouterr().err

    def test_dimension_mismatch_exits_2(self, trained, tmp_path, capsys):
        _, _, model_path = trained
        other = tmp_path / "wide.svm"
        other.write_text("+1 1:1 9:1\n-1 2:1 9:0.5\n")
        rc = main(["predict", "--model", str(model_path), "--data", str(other),
                   "--out", str(tmp_path / "p.tsv")])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: dimension mismatch: features (2, 9) vs dictionary with d=5\n")

    @pytest.mark.parametrize("top", [9, 2**60])
    def test_index_above_the_model_width_exits_2_after_the_whole_file(self, trained, tmp_path,
                                                                       capsys, top):
        # 2**60 columns could not be allocated; predict never builds the matrix.
        _, _, model_path = trained
        other = tmp_path / "wide.svm"
        other.write_text(f"+1 1:1\n-1 2:1 {top}:0.5\n+1 3:1\n")
        rc = main(["predict", "--model", str(model_path), "--data", str(other),
                   "--out", str(tmp_path / "p.tsv")])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: dimension mismatch: features (3, {top}) vs dictionary with d=5\n")

    def test_file_fault_after_an_index_above_the_width_is_reported(self, trained, tmp_path,
                                                                    capsys):
        _, _, model_path = trained
        other = tmp_path / "wide.svm"
        other.write_text("+1 1:1 9:1\n-1 1:x\n")
        rc = main(["predict", "--model", str(model_path), "--data", str(other),
                   "--out", str(tmp_path / "p.tsv")])
        assert rc == 1
        assert capsys.readouterr().err == "error: line 2: malformed feature value in '1:x'\n"

    # D'D of this dictionary overflows, so encode may fail.
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("name, text, code, message", [
        ("bad.svm", "+1 1:1\n-1 1:x\n", 1, "line 2: malformed feature value in '1:x'"),
        ("bad.csv", "label,a,b,c,d,e\n+1,1,0,0,0,0\n-1,x,0,0,0,0\n", 1,
         "line 3: non-numeric feature cell 'x' in column 'a'"),
        ("narrow.csv", "label,a,b\n+1,1,0.5\n-1,-1,-0.5\n", 2,
         "dimension mismatch: features (2, 2) vs dictionary with d=5"),
    ], ids=["svmlight", "csv", "csv-of-another-width"])
    def test_file_fault_is_reported_before_a_failing_encode(self, trained, tmp_path, capsys,
                                                            name, text, code, message):
        _, _, model_path = trained
        document = json.loads(model_path.read_text())
        document["dictionary"] = [1e200] * len(document["dictionary"])
        model = tmp_path / "huge.json"
        model.write_text(json.dumps(document))
        data = tmp_path / name
        data.write_text(text)
        rc = main(["predict", "--model", str(model), "--data", str(data),
                   "--out", str(tmp_path / "p.tsv")])
        assert rc == code
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_csv_of_another_width_exits_2(self, trained, tmp_path, capsys):
        _, _, model_path = trained
        other = tmp_path / "narrow.csv"
        other.write_text("label,a,b\n+1,1,0.5\n-1,-1,-0.5\n")
        rc = main(["predict", "--model", str(model_path), "--data", str(other),
                   "--out", str(tmp_path / "p.tsv")])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: dimension mismatch: features (2, 2) vs dictionary with d=5\n")

    def test_svmlight_columns_zero_on_every_line_are_read_at_the_model_width(self, trained,
                                                                             tmp_path):
        # svmlight omits zeros, so columns 3-5 (d=5) leave no entry at all.
        _, _, model_path = trained
        outputs = []
        for name, tail in (("short.svm", ""), ("full.svm", " 3:0 4:0 5:0")):
            path = tmp_path / name
            path.write_text(f"+1 1:1 2:0.5{tail}\n-1 1:-1 2:-0.5{tail}\n")
            out = tmp_path / f"{name}.tsv"
            assert main(["predict", "--model", str(model_path), "--data", str(path),
                         "--out", str(out)]) == 0
            outputs.append(out.read_text())
        assert outputs[0] == outputs[1]

    def test_rows_without_an_entry_are_predicted_and_evaluated(self, trained, tmp_path, capsys):
        # Zero rows at the model's d: every score is 0.0, labelled +1.
        _, _, model_path = trained
        data, predictions = tmp_path / "blank.svm", tmp_path / "p.tsv"
        data.write_text("+1\n-1\n")
        assert main(["predict", "--model", str(model_path), "--data", str(data),
                     "--out", str(predictions)]) == 0
        assert predictions.read_text() == "0\t0.0\t+1\n1\t0.0\t+1\n"
        capsys.readouterr()
        assert main(["eval", "--predictions", str(predictions), "--truth", str(data)]) == 0
        assert capsys.readouterr().out.startswith("f1 ")

    @pytest.mark.parametrize(
        "path, value",
        [
            (("dictionary", 0), "x"),
            (("weights", 0), float("nan")),
            (("trace", 0, "objective"), [1.0]),
            (("d",), "three"),
            (("config", "iters"), 2.5),
            (("config", "bogus"), 1),
            (("weights",), [0.5]),
            (("alphas",), [0.5]),
            (("alphas", 0), -1.0),
        ],
        ids=["dictionary-str", "weights-nan", "trace-list", "d-str", "iters-float",
             "unknown-config-key", "weights-short", "alphas-short", "alphas-negative"],
    )
    def test_malformed_model_number_exits_1(self, trained, tmp_path, capsys, path, value):
        data_path, _, model_path = trained
        document = json.loads(model_path.read_text())
        target = document
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(document))
        out = tmp_path / "p.tsv"
        rc = main(["predict", "--model", str(bad), "--data", str(data_path), "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    def test_version_1_model_predicts(self, tmp_path):
        data = tmp_path / "three.svm"
        data.write_text("+1 1:1.5 2:0.5 3:1.0\n-1 1:-1.0 3:-2.0\n+1 2:2.0\n")
        out = tmp_path / "p.tsv"
        rc = main(["predict", "--model", str(MODEL_V1), "--data", str(data), "--out", str(out)])
        assert rc == 0
        assert len(out.read_text().strip().split("\n")) == 3

    def test_version_2_model_with_retired_key_predicts_ridge_scores(self, tmp_path):
        # the file's encode_iters is ignored: scores are w' of the ridge codes
        X = np.array([[1.5, 0.5, 1.0], [-1.0, 0.0, -2.0], [0.0, 2.0, 0.0]])
        data = tmp_path / "three.svm"
        data.write_text("+1 1:1.5 2:0.5 3:1.0\n-1 1:-1.0 3:-2.0\n+1 2:2.0\n")
        out = tmp_path / "p.tsv"
        rc = main(["predict", "--model", str(MODEL_V2), "--data", str(data), "--out", str(out)])
        assert rc == 0
        document = json.loads(MODEL_V2.read_text())
        m = document["config"]["dict_size"]
        D = np.array(document["dictionary"]).reshape(document["d"], m)
        codes = np.linalg.solve(D.T @ D + document["config"]["c1"] * np.eye(m), D.T @ X.T)
        scores = [float(line.split("\t")[1]) for line in out.read_text().strip().split("\n")]
        np.testing.assert_allclose(scores, np.array(document["weights"]) @ codes, rtol=1e-12)


@pytest.fixture(scope="module")
def gate_model(tmp_path_factory):
    """A model file trained on the gate data, and the svmlight text of 2,000 held-out points."""
    path = tmp_path_factory.mktemp("gate") / "model.json"
    path.write_bytes(save_model(fit(make_gaussian_dataset(), TrainConfig(iters=5, seed=7))))
    return path, serialize_svmlight(make_gaussian_dataset(seed=99, n=2000))


class TestPredictStreams:
    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs FIFOs")
    def test_fifo_data_predicts_as_the_regular_file_does(self, gate_model, tmp_path):
        # The text is larger than a pipe's buffer, so the writer waits on the reader.
        model_path, text = gate_model
        regular, fifo = tmp_path / "heldout.svm", tmp_path / "heldout.fifo"
        regular.write_text(text)
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_text, args=(text,), daemon=True)
        writer.start()
        outputs = []
        for data in (fifo, regular):
            out = tmp_path / f"{data.name}.tsv"
            assert main(["predict", "--model", str(model_path), "--data", str(data),
                         "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        writer.join(timeout=10)
        assert not writer.is_alive()
        assert outputs[0] == outputs[1]

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs FIFOs")
    def test_fifo_truth_evaluates_as_the_regular_file_does(self, gate_model, tmp_path, capsys):
        model_path, text = gate_model
        regular, fifo = tmp_path / "heldout.svm", tmp_path / "heldout.fifo"
        regular.write_text(text)
        predictions = tmp_path / "preds.tsv"
        assert main(["predict", "--model", str(model_path), "--data", str(regular),
                     "--out", str(predictions)]) == 0
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_text, args=(text,), daemon=True)
        writer.start()
        outputs = []
        for truth in (fifo, regular):
            capsys.readouterr()
            assert main(["eval", "--predictions", str(predictions), "--truth", str(truth)]) == 0
            outputs.append(capsys.readouterr().out)
        writer.join(timeout=10)
        assert not writer.is_alive()
        assert outputs[0] == outputs[1]

    def test_csv_of_the_same_points_predicts_the_same_bytes(self, gate_model, tmp_path):
        # The CSV matrix is scored as one block, the svmlight rows a block at a time.
        model_path, text = gate_model
        ds = parse_svmlight(text)
        svmlight, csv = tmp_path / "heldout.svm", tmp_path / "heldout.csv"
        svmlight.write_text(text)
        csv.write_text("".join([",".join(["label", *(f"x{j}" for j in range(1, ds.d + 1))]) + "\n",
                                *(",".join([f"{y:+d}", *map(repr, row)]) + "\n"
                                  for y, row in zip(ds.labels.tolist(), ds.features.tolist()))]))
        outputs = []
        for data in (svmlight, csv):
            out = tmp_path / f"{data.name}.tsv"
            assert main(["predict", "--model", str(model_path), "--data", str(data),
                         "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("block_bytes", [8, dataio._BLOCK_BYTES])
    def test_blocks_of_any_size_give_the_scores_of_the_whole_matrix(self, gate_model, tmp_path,
                                                                    monkeypatch, block_bytes):
        # Each row is scored on its own, so the block size cannot move a score.
        model_path, text = gate_model
        data, out = tmp_path / "heldout.svm", tmp_path / "preds.tsv"
        data.write_text(text)
        scores, labels = _score(load_model(model_path.read_bytes()),
                                [parse_svmlight(text).features])
        monkeypatch.setattr(dataio, "_BLOCK_BYTES", block_bytes)
        assert main(["predict", "--model", str(model_path), "--data", str(data),
                     "--out", str(out)]) == 0
        assert out.read_text() == "".join(
            f"{i}\t{s!r}\t{y:+d}\n" for i, (s, y) in enumerate(zip(scores.tolist(),
                                                                    labels.tolist())))

    @pytest.mark.parametrize("out", ["file", "-"])
    @pytest.mark.parametrize("n", [_LINES_PER_WRITE - 1, _LINES_PER_WRITE, _LINES_PER_WRITE + 1])
    def test_lines_written_in_blocks_match_every_row_formatted_at_once(self, trained, tmp_path,
                                                                       capsys, n, out):
        _, _, model_path = trained
        data = tmp_path / "heldout.svm"
        data.write_text(serialize_svmlight(make_gaussian_dataset(seed=41, n=n, d=5)))
        scores, labels = _score(load_model(model_path.read_bytes()),
                                [parse_svmlight(data.read_bytes()).features])
        expected = "".join(f"{i}\t{s!r}\t{y:+d}\n"
                           for i, (s, y) in enumerate(zip(scores.tolist(), labels.tolist())))
        target = str(tmp_path / "preds.tsv") if out == "file" else "-"
        capsys.readouterr()
        assert main(["predict", "--model", str(model_path), "--data", str(data),
                     "--out", target]) == 0
        written = capsys.readouterr().out if out == "-" else Path(target).read_text()
        assert written == expected


class TestInputMemory:
    # The held-out file is read in blocks, so each command's traced peak stays
    # near the n-by-d matrix; holding the file's 3.5 MB of text would not.
    n, d = 8000, 20

    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        directory = tmp_path_factory.mktemp("memory")
        model, data, predictions = (directory / name
                                    for name in ("model.json", "heldout.svm", "preds.tsv"))
        model.write_bytes(save_model(fit(make_gaussian_dataset(seed=51, d=self.d),
                                         TrainConfig(iters=2, seed=4))))
        data.write_text(serialize_svmlight(make_gaussian_dataset(seed=52, n=self.n, d=self.d)))
        assert main(["predict", "--model", str(model), "--data", str(data),
                     "--out", str(predictions)]) == 0
        return model, data, predictions

    def traced_peak(self, argv) -> int:
        tracemalloc.start()
        try:
            assert main(argv) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_predict_peak_is_under_twice_the_matrix(self, files, tmp_path):
        model, data, _ = files
        peak = self.traced_peak(["predict", "--model", str(model), "--data", str(data),
                                 "--out", str(tmp_path / "preds.tsv")])
        assert peak < 2 * self.n * self.d * 8

    def test_predict_peak_is_under_half_the_matrix(self, files, tmp_path):
        # predict scores each block as it is read and keeps only the n scores.
        model, data, _ = files
        peak = self.traced_peak(["predict", "--model", str(model), "--data", str(data),
                                 "--out", str(tmp_path / "preds.tsv")])
        assert peak < self.n * self.d * 8 / 2

    def test_eval_peak_is_under_the_matrix(self, files):
        # eval keeps only the truth labels; AUC's midranks set its peak.
        _, data, predictions = files
        peak = self.traced_peak(["eval", "--predictions", str(predictions), "--truth", str(data)])
        assert peak < self.n * self.d * 8

    def test_eval_peak_is_under_twice_the_matrix(self, files):
        _, data, predictions = files
        peak = self.traced_peak(["eval", "--predictions", str(predictions), "--truth", str(data)])
        assert peak < 2 * self.n * self.d * 8


class TestScore:
    def test_scores_match_the_codes_times_the_weights(self):
        ds = make_gaussian_dataset(seed=31, n=300, d=6, separation=0.3)
        model = fit(ds, TrainConfig(iters=10, dict_size=9, seed=3))
        features = make_gaussian_dataset(seed=32, n=2000, d=6, separation=0.3).features
        codes = encode(model.dictionary, features, model.config)
        expected = point_scores(model.weights, codes)
        scores, labels = _score(model, [features])
        np.testing.assert_allclose(scores, expected, rtol=0, atol=1e-15 * np.abs(expected).max())
        np.testing.assert_array_equal(labels, predict(model.weights, codes))

    def test_peak_memory_is_under_a_tenth_of_the_codes(self):
        # Scoring through v = P'w holds the m-by-d projection and a few
        # n-vectors; the m-by-n codes would be 12.8 MB here.
        m, n = 80, 20000
        model = fit(make_gaussian_dataset(seed=33, n=200, d=20),
                    TrainConfig(iters=2, dict_size=m, seed=4))
        features = make_gaussian_dataset(seed=34, n=n, d=20).features
        tracemalloc.start()
        try:
            _score(model, [features])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < m * n * 8 / 10

    def test_zero_c1_separates_the_gate_family(self):
        # c1 = 0 leaves D'D of the 10-by-20 dictionary singular up to rounding
        train, held_out = make_gaussian_dataset(), make_gaussian_dataset(seed=99)
        aucs = [auc_from_scores(held_out.labels,
                                _score(fit(train, TrainConfig(c1=0.0, seed=seed)),
                                       [held_out.features])[0])
                for seed in range(5)]
        assert min(aucs) >= 0.95, aucs


class TestEval:
    def write_files(self, tmp_path, y, scores, labels):
        truth = tmp_path / "truth.svm"
        truth.write_text(
            "\n".join(f"{'+1' if t == 1 else '-1'} 1:{i + 1}.0" for i, t in enumerate(y)) + "\n"
        )
        preds = tmp_path / "preds.tsv"
        preds.write_text(
            "\n".join(f"{i}\t{s!r}\t{l:+d}" for i, (s, l) in enumerate(zip(scores, labels)))
            + "\n"
        )
        return truth, preds

    def test_perfect_predictions(self, tmp_path, capsys):
        y = [1, 1, -1, -1]
        truth, preds = self.write_files(tmp_path, y, [4.0, 3.0, -1.0, -2.0], y)
        assert main(["eval", "--predictions", str(preds), "--truth", str(truth)]) == 0
        out = dict(line.split() for line in capsys.readouterr().out.strip().split("\n"))
        assert float(out["f1"]) == 1.0
        assert float(out["prbep"]) == 1.0
        assert float(out["auc"]) == 1.0

    def test_inverted_scores_auc_zero(self, tmp_path, capsys):
        y = [1, 1, -1, -1]
        truth, preds = self.write_files(tmp_path, y, [-2.0, -1.0, 1.0, 2.0], [-1, -1, 1, 1])
        assert main(["eval", "--predictions", str(preds), "--truth", str(truth)]) == 0
        out = dict(line.split() for line in capsys.readouterr().out.strip().split("\n"))
        assert float(out["auc"]) == 0.0

    def test_worked_auc_through_files(self, tmp_path, capsys):
        y = [1, -1, 1, -1]
        truth, preds = self.write_files(
            tmp_path, y, [0.9, 0.8, 0.3, 0.1], [1, 1, -1, -1]
        )
        assert main(["eval", "--predictions", str(preds), "--truth", str(truth),
                     "--measure", "auc"]) == 0
        out = capsys.readouterr().out.strip().split("\n")
        assert out == [f"auc {0.75!r}"]

    @pytest.mark.parametrize("measure", ["f1", "prbep", "auc"])
    def test_measure_filter_prints_that_line_of_the_full_output(self, tmp_path, capsys,
                                                                 measure):
        truth, preds = self.write_files(
            tmp_path, [1, -1, 1, -1, 1], [0.9, 0.8, 0.3, 0.1, -0.2], [1, 1, -1, -1, -1]
        )
        argv = ["eval", "--predictions", str(preds), "--truth", str(truth)]
        assert main(argv) == 0
        lines = capsys.readouterr().out.splitlines(keepends=True)
        assert [line.split()[0] for line in lines] == ["f1", "prbep", "auc"]
        assert main(argv + ["--measure", measure]) == 0
        assert capsys.readouterr().out == next(
            line for line in lines if line.startswith(f"{measure} "))

    def test_single_class_truth_exits_2_and_prints_no_measure(self, tmp_path, capsys):
        # f1 is defined on one class, prbep is not: the f1 line must not be printed alone
        truth, preds = self.write_files(tmp_path, [1, 1, 1], [0.9, 0.8, -0.3], [1, 1, -1])
        assert main(["eval", "--predictions", str(preds), "--truth", str(truth)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: degenerate class")

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_score_exits_1_with_its_line(self, tmp_path, capsys, bad):
        truth, preds = self.write_files(tmp_path, [1, -1, 1], [1.0, float(bad), 0.5], [1, -1, 1])
        rc = main(["eval", "--predictions", str(preds), "--truth", str(truth)])
        assert rc == 1
        assert f"line 2: non-finite score '{bad}'" in capsys.readouterr().err

    def test_non_utf8_predictions_exit_1_with_their_line(self, tmp_path, capsys):
        truth, preds = self.write_files(tmp_path, [1, -1, 1], [1.0, -1.0, 0.5], [1, -1, 1])
        preds.write_bytes(b"0\t1.0\t+1\n1\t-1.0\t-1\n2\t0.5\t+1 \xe9t\xe9\n")
        assert main(["eval", "--predictions", str(preds), "--truth", str(truth)]) == 1
        assert capsys.readouterr().err == (
            "error: line 3: byte 0xe9 is not UTF-8 (invalid continuation byte)\n")

    @pytest.mark.parametrize("ending", ["\r\n", "\r"])
    def test_predictions_read_with_universal_newlines(self, tmp_path, capsys, ending):
        y = [1, 1, -1, -1]
        truth, preds = self.write_files(tmp_path, y, [4.0, 3.0, -1.0, -2.0], y)
        preds.write_bytes(preds.read_bytes().replace(b"\n", ending.encode()))
        assert main(["eval", "--predictions", str(preds), "--truth", str(truth)]) == 0
        assert capsys.readouterr().out == "f1 1.0\nprbep 1.0\nauc 1.0\n"

    # A case's id is its message without quotes, which a node id on a command line
    # would need escaped.
    @pytest.mark.parametrize("lines, message", [
        (["0\t1.0\t+1", "1\t0.5\t2", "2\t0.5"], "line 2: label '2' not in {+1, -1}"),
        (["0\t1.0\t+1", "1\t0.5\t3", "2\t0.5\t0"], "line 2: label '3' not in {+1, -1}"),
        (["0\t1.0\t+1", "1\t0.5\t-1\tx", "2\t0.5\t-1"],
         "line 2: prediction line must be id<TAB>score<TAB>label"),
        (["0\t1.0\t+1", "", "2\t0.5", "3\tx\t+1"],
         "line 3: prediction line must be id<TAB>score<TAB>label"),
        (["0\t1.0\t+1", "1\t0.5\t-99999999999999999999"],
         "line 2: label '-99999999999999999999' not in {+1, -1}"),
        (["0\t1.0\t+1.0", "1\tnan\t+1"], "line 1: label '+1.0' not in {+1, -1}"),
        (["", "  "], "empty predictions file"),
        # int() reads each of these as +1 or -1; the data files accept only +1, 1 and -1.
        *((["0\t1.0\t+1", "1\t0.5\t-1", f"2\t0.5\t{label}"],
           f"line 3: label '{label}' not in {{+1, -1}}")
          for label in ("+01", "0001", "-0001", "\u0661")),
        # A byte that is not UTF-8 (\udce9 stands for byte 0xe9) comes after an earlier fault.
        (["0\t1.0\t+1", "1\tx\t-1", "2\t0.5\t+1 \udce9t\udce9"],
         "line 2: malformed prediction line"),
        # The k-th non-blank line carries id k, as predict writes it.
        (["abc\t1.0\t+1", "1\t0.5\t-1"], "line 1: id 'abc' is not row 0"),
        (["0\t1.0\t+1", "", "2\t0.5\t-1"], "line 3: id '2' is not row 1"),
        (["1\t1.0\tx", "0\tnan\t+1"], "line 1: id '1' is not row 0"),
    ], ids=lambda value: value.replace("'", "") if isinstance(value, str) else None)
    def test_first_fault_in_predictions_is_reported(self, tmp_path, capsys, lines, message):
        truth, preds = self.write_files(tmp_path, [1, -1], [1.0, -1.0], [1, -1])
        preds.write_bytes(("\n".join(lines) + "\n").encode("utf-8", "surrogateescape"))
        assert main(["eval", "--predictions", str(preds), "--truth", str(truth)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_swapped_rows_exit_1_with_the_first_misplaced_line(self, tmp_path, capsys):
        # Rows 0 and 2 swapped, ids kept: read in line order they would score the wrong truth rows.
        truth, preds = self.write_files(tmp_path, [1, -1, 1, -1], [0.9, -0.8, 0.3, -0.1],
                                        [1, -1, 1, -1])
        lines = preds.read_text().splitlines()
        lines[0], lines[2] = lines[2], lines[0]
        preds.write_text("\n".join(lines) + "\n")
        assert main(["eval", "--predictions", str(preds), "--truth", str(truth)]) == 1
        assert capsys.readouterr().err == "error: line 1: id '2' is not row 0\n"

    def test_ids_may_be_padded_like_labels(self, tmp_path, capsys):
        y = [1, -1]
        truth, preds = self.write_files(tmp_path, y, [1.0, -1.0], y)
        preds.write_text("0 \t1.0\t+1\n 1\t-1.0\t-1 \n")
        assert main(["eval", "--predictions", str(preds), "--truth", str(truth)]) == 0
        assert capsys.readouterr().out == "f1 1.0\nprbep 1.0\nauc 1.0\n"

    def test_misaligned_exits_2(self, tmp_path, capsys):
        truth, preds = self.write_files(tmp_path, [1, -1], [1.0, -1.0], [1, -1])
        short = tmp_path / "short.tsv"
        short.write_text("0\t1.0\t+1\n")
        rc = main(["eval", "--predictions", str(short), "--truth", str(truth)])
        assert rc == 2
        assert "misaligned" in capsys.readouterr().err


class TestCv:
    def cv_flags(self, data_path, out_path, **overrides):
        flags = {
            "--data": str(data_path),
            "--out": str(out_path),
            "--k": "5",
            "--measure": "f1",
            "--iters": "10",
            "--dict-size": "6",
            "--seed": "11",
        }
        flags.update({k: str(v) for k, v in overrides.items()})
        argv = ["cv"]
        for key, value in flags.items():
            argv += [key, value]
        return argv

    def test_report_structure_and_config_echo(self, data_file, tmp_path):
        data_path, ds = data_file
        out = tmp_path / "report.json"
        assert main(self.cv_flags(data_path, out)) == 0
        report = json.loads(out.read_text())
        assert report["k"] == 5
        assert len(report["folds"]) == 5
        assert report["config"]["iters"] == 10
        assert report["config"]["dict_size"] == 6
        assert report["config"]["measure"] == "f1"
        for name in ("f1", "prbep", "auc"):
            stats = report["summary"][name]
            assert set(stats) == {"min", "p25", "median", "p75", "max"}
            assert 0.0 <= stats["min"] <= stats["max"] <= 1.0
            # summaries are exactly the order statistics of the fold values
            values = [row[name] for row in report["folds"] if row[name] is not None]
            quartiles = np.percentile(values, [0, 25, 50, 75, 100])
            for key, expected in zip(("min", "p25", "median", "p75", "max"), quartiles):
                assert stats[key] == expected
        for row in report["folds"]:
            assert row["seconds"] is not None

    def test_fold_row_keys_in_order(self, data_file, tmp_path):
        data_path, _ = data_file
        out = tmp_path / "report.json"
        assert main(self.cv_flags(data_path, out, **{"--k": "2", "--iters": "2"})) == 0
        for row in json.loads(out.read_text())["folds"]:
            assert list(row) == ["fold", "seed", "test_indices", "n_test", "f1", "prbep", "auc",
                                 "seconds", "status", "note"]

    @pytest.mark.parametrize("stratified", [False, True], ids=["plain", "stratified"])
    def test_partition_matches_kfold_split(self, data_file, tmp_path, stratified):
        data_path, ds = data_file
        out = tmp_path / "report.json"
        assert main(self.cv_flags(data_path, out) + ["--stratified"] * stratified) == 0
        report = json.loads(out.read_text())
        assert report["stratified"] is stratified
        plan = kfold_split(ds.n, 5, seed=11, labels=ds.labels if stratified else None)
        for fold, row in enumerate(report["folds"]):
            assert row["test_indices"] == np.flatnonzero(plan == fold).tolist()

    def test_fold_row_is_train_predict_eval_on_the_folds_split(self, tmp_path, capsys):
        # A fold scores its test points as predict does, so the measures are
        # equal, and none is 1.0, where different scores could agree.
        ds = make_gaussian_dataset(seed=5, n=60, d=4, separation=0.3)
        data, report_path = tmp_path / "data.svm", tmp_path / "report.json"
        data.write_text(serialize_svmlight(ds))
        assert main(["cv", "--data", str(data), "--k", "3", "--iters", "15", "--seed", "2",
                     "--measure", "auc", "--omit-timing", "--out", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        for row in report["folds"]:
            test = np.zeros(ds.n, dtype=bool)
            test[row["test_indices"]] = True
            paths = {}
            for role, rows in (("train", ~test), ("test", test)):
                paths[role] = tmp_path / f"{role}{row['fold']}.svm"
                paths[role].write_text(serialize_svmlight(Dataset(ds.features[rows],
                                                                  ds.labels[rows])))
            model, predictions = tmp_path / "model.json", tmp_path / "p.tsv"
            assert main(["train", "--data", str(paths["train"]), "--iters", "15",
                         "--seed", str(row["seed"]), "--measure", "auc",
                         "--dict-size", str(report["config"]["dict_size"]),
                         "--out", str(model)]) == 0
            assert main(["predict", "--model", str(model), "--data", str(paths["test"]),
                         "--out", str(predictions)]) == 0
            capsys.readouterr()
            assert main(["eval", "--predictions", str(predictions),
                         "--truth", str(paths["test"])]) == 0
            measured = dict(line.split(" ") for line in capsys.readouterr().out.splitlines())
            assert {name: float(value) for name, value in measured.items()} == {
                name: row[name] for name in ("f1", "prbep", "auc")}
            assert max(row["f1"], row["prbep"], row["auc"]) < 1.0

    def test_same_seed_byte_identical_with_omit_timing(self, data_file, tmp_path):
        data_path, _ = data_file
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert main(self.cv_flags(data_path, a) + ["--omit-timing"]) == 0
        assert main(self.cv_flags(data_path, b) + ["--omit-timing"]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_parallel_folds_match_serial(self, data_file, tmp_path):
        data_path, _ = data_file
        serial = tmp_path / "serial.json"
        parallel = tmp_path / "parallel.json"
        assert main(self.cv_flags(data_path, serial) + ["--omit-timing", "--jobs", "1"]) == 0
        assert main(self.cv_flags(data_path, parallel)
                    + ["--omit-timing", "--jobs", "2"]) == 0
        assert serial.read_bytes() == parallel.read_bytes()

    def test_workers_started_without_fork_match_in_process_run(self, data_file, monkeypatch):
        # Where fork is missing, workers start from the platform default
        # context, which must be spawn here: get_context(None) is fork on Linux.
        import multiprocessing
        get_context, methods = multiprocessing.get_context, []

        def default_is_spawn(method=None):
            methods.append(method)
            return get_context(method or "spawn")

        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        monkeypatch.setattr(multiprocessing, "get_context", default_is_spawn)
        _, ds = data_file
        config = TrainConfig(iters=5, dict_size=6, seed=7)
        serial, parallel = (json.dumps(cross_validate(ds, config, k=4, jobs=jobs,
                                                      include_timing=False), indent=2)
                            for jobs in (1, 2))
        assert methods == [None]
        assert serial == parallel

    def test_omit_timing_report_is_the_same_for_every_jobs_value(self, data_file, tmp_path):
        # One CPU-count default, one in-process run, and more workers than folds.
        data_path, _ = data_file
        # One negative among 12 points: the fold that tests it has none to
        # train on, so AUC training is skipped there.
        rng = np.random.default_rng(17)
        skewed = tmp_path / "skewed.svm"
        skewed.write_text("".join(f"{'-1' if i == 0 else '+1'} 1:{rng.normal():.3f} "
                                  f"2:{rng.normal():.3f}\n" for i in range(12)))
        runs = [(data_path, {}),
                (skewed, {"--k": "4", "--dict-size": "3", "--iters": "3", "--measure": "auc"})]
        for path, overrides in runs:
            reports = []
            for jobs in ([], ["--jobs", "1"], ["--jobs", "7"]):
                out = tmp_path / f"report{len(reports)}.json"
                assert main(self.cv_flags(path, out, **overrides) + ["--omit-timing"] + jobs) == 0
                reports.append(out.read_bytes())
            assert reports[1] == reports[0] == reports[2]
        statuses = [row["status"] for row in json.loads(reports[0])["folds"]]
        assert statuses.count("skipped") == 1

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_diverging_fold_exits_3_alike_for_any_jobs(self, tmp_path, capsys, jobs):
        path = tmp_path / "gate.svm"
        path.write_text(serialize_svmlight(make_gaussian_dataset()))
        argv = ["cv", "--data", str(path), "--k", "4", "--eta", "1e6", "--iters", "20",
                "--out", str(tmp_path / "report.json"), "--jobs", jobs]
        assert main(argv) == 3
        assert capsys.readouterr().err == "error: numerical overflow at iteration 12\n"

    def test_degenerate_test_fold_marked_skipped(self, tmp_path):
        # 12 points with only two negatives: folds without a negative cannot
        # score PRBEP/AUC and must be noted, while F1 is still reported
        rng = np.random.default_rng(17)
        lines = []
        for i in range(12):
            label = "-1" if i < 2 else "+1"
            lines.append(f"{label} 1:{rng.normal():.3f} 2:{rng.normal():.3f}")
        path = tmp_path / "skewed.svm"
        path.write_text("\n".join(lines) + "\n")
        out = tmp_path / "report.json"
        assert main(self.cv_flags(path, out, **{"--k": "4", "--dict-size": "3",
                                                "--iters": "3"})) == 0
        report = json.loads(out.read_text())
        skipped = [row for row in report["folds"] if row["auc"] is None]
        assert skipped, "expected at least one degenerate test fold"
        for row in skipped:
            assert "degenerate" in row["note"]
            assert row["prbep"] is None
            assert row["f1"] is not None


class TestSweep:
    def test_malformed_grid_exits_2(self, data_file, tmp_path, capsys):
        data_path, _ = data_file
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", "--data", str(data_path), "--out", str(out), "--c1-grid", "a",
                   "--c2-grid", "0.01", "--c3-grid", "1.0", "--k", "3"])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: malformed grid 'a'; expected comma-separated numbers\n")
        assert not out.exists()

    def test_grid_rows_and_header(self, data_file, tmp_path):
        data_path, _ = data_file
        out = tmp_path / "sweep.csv"
        rc = main([
            "sweep", "--data", str(data_path), "--out", str(out),
            "--c1-grid", "0.001,0.1,1.0", "--c2-grid", "0.01,0.1,1.0",
            "--c3-grid", "0.5,1.0,2.0", "--k", "3", "--iters", "5",
            "--dict-size", "4", "--seed", "3",
        ])
        assert rc == 0
        rows = out.read_text().strip().split("\n")
        assert rows[0] == ",".join(SWEEP_HEADER)
        assert len(rows) == 1 + 27
        assert all(row.endswith(",ok") for row in rows[1:])

    def test_increasing_c1_does_not_degrade_f1(self, data_file, tmp_path):
        data_path, _ = data_file
        out = tmp_path / "sweep.csv"
        rc = main([
            "sweep", "--data", str(data_path), "--out", str(out),
            "--c1-grid", "0.001,0.01,0.1,1.0", "--c2-grid", "0.01",
            "--c3-grid", "1.0", "--k", "3", "--iters", "15",
            "--dict-size", "6", "--seed", "3",
        ])
        assert rc == 0
        rows = out.read_text().strip().split("\n")[1:]
        medians = [float(row.split(",")[3]) for row in rows]
        assert medians[-1] >= medians[0] - 0.05

    def test_failed_cell_flagged(self, data_file, tmp_path, capsys):
        data_path, _ = data_file
        out = tmp_path / "sweep.csv"
        rc = main([
            "sweep", "--data", str(data_path), "--out", str(out),
            "--c1-grid=-1.0,0.1", "--c2-grid", "0.01", "--c3-grid", "1.0",
            "--k", "3", "--iters", "2", "--dict-size", "3",
        ])
        assert rc == 0
        rows = out.read_text().strip().split("\n")[1:]
        assert rows[0].endswith(",failed")
        assert rows[1].endswith(",ok")
        err = capsys.readouterr().err
        assert "error: c1=-1.0 c2=0.01 c3=1.0: ValueError" in err
        assert "must be nonnegative" in err

    def test_default_jobs_match_in_process_run(self, data_file, tmp_path, capsys):
        # c3 = 1e4 diverges in a fold.  By default the 9 tasks run on a worker
        # per CPU (at most 4), so with two CPUs the failure comes from a worker.
        data_path, _ = data_file
        argv = ["sweep", "--data", str(data_path), "--c1-grid", "0.1", "--c2-grid", "0.01",
                "--c3-grid", "1.0,1e4,2.0", "--k", "3", "--iters", "20",
                "--dict-size", "3", "--eta", "0.5"]
        outputs = []
        for jobs in ([], ["--jobs", "1"]):
            out = tmp_path / f"sweep{len(outputs)}.csv"
            assert main(argv + ["--out", str(out)] + jobs) == 0
            outputs.append((out.read_text(), capsys.readouterr().err))
        assert outputs[0] == outputs[1]
        text, err = outputs[0]
        assert [row.rsplit(",", 1)[1] for row in text.strip().split("\n")[1:]] == [
            "ok", "failed", "ok"]
        assert err == ("error: c1=0.1 c2=0.01 c3=10000.0: NumericalDivergenceError: "
                       "numerical overflow at iteration 9\n")

    @pytest.mark.parametrize("flags", [[], ["--stratified"]], ids=["plain", "stratified"])
    def test_medians_match_cv_of_each_cell(self, tmp_path, flags):
        # Overlapping classes, so the fold medians fall below 1.0 and differ by cell.
        path = tmp_path / "overlap.svm"
        path.write_text(serialize_svmlight(make_gaussian_dataset(seed=5, n=40, d=3,
                                                                 separation=0.4)))
        common = ["--data", str(path), "--k", "4", "--iters", "10", "--dict-size", "4",
                  "--seed", "9", "--jobs", "1", *flags]
        out = tmp_path / "sweep.csv"
        assert main(["sweep", *common, "--c1-grid", "0.01,1.0", "--c2-grid", "0.01",
                     "--c3-grid", "0.5,2.0", "--out", str(out)]) == 0
        rows = [row.split(",") for row in out.read_text().strip().split("\n")[1:]]
        medians = []
        for c1, c2, c3, *values, status in rows:
            assert status == "ok"
            report = tmp_path / "cv.json"
            assert main(["cv", *common, "--c1", c1, "--c2", c2, "--c3", c3,
                         "--out", str(report)]) == 0
            summary = json.loads(report.read_text())["summary"]
            expected = [summary[name]["median"] for name in ("f1", "prbep", "auc")]
            assert values == [repr(median) for median in expected]
            medians.append(expected)
        assert max(max(cell) for cell in medians) < 1.0
        assert len(set(map(tuple, medians))) == len(medians)

    @pytest.mark.parametrize("k, message", [
        ("1", "k must be >= 2, got 1"), ("61", "k=61 exceeds the number of points n=60")])
    def test_bad_k_exits_2_as_cv_does(self, data_file, tmp_path, capsys, k, message):
        data_path, _ = data_file
        flags = ["--data", str(data_path), "--k", k, "--iters", "2", "--dict-size", "3"]
        errors = []
        for command in (["cv"], ["sweep", "--c1-grid", "0.1", "--c2-grid", "0.01",
                                 "--c3-grid", "1.0"]):
            out = tmp_path / f"{command[0]}.out"
            assert main(command + flags + ["--out", str(out)]) == 2
            assert not out.exists()
            errors.append(capsys.readouterr().err)
        assert errors == [f"error: {message}\n"] * 2

    def test_every_cell_rejected_writes_failed_rows(self, data_file, tmp_path, capsys):
        data_path, _ = data_file
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--data", str(data_path), "--out", str(out),
                     "--c1-grid=-1,-2", "--c2-grid", "0.01", "--c3-grid", "1.0",
                     "--k", "3", "--iters", "2", "--dict-size", "3"]) == 0
        assert out.read_text().strip().split("\n") == [
            ",".join(SWEEP_HEADER), "-1.0,0.01,1.0,,,,failed", "-2.0,0.01,1.0,,,,failed"]
        assert capsys.readouterr().err.count("must be nonnegative") == 2

    def test_empty_grid_rejected(self, data_file, tmp_path):
        data_path, _ = data_file
        rc = main([
            "sweep", "--data", str(data_path), "--out", str(tmp_path / "s.csv"),
            "--c1-grid", ",", "--c2-grid", "0.01", "--c3-grid", "1.0",
        ])
        assert rc == 2


class TestCsvInput:
    def test_train_on_csv(self, tmp_path):
        rng = np.random.default_rng(23)
        rows = ["label,f1,f2"]
        for _ in range(20):
            label = rng.choice(["+1", "-1"])
            shift = 2.0 if label == "+1" else -2.0
            rows.append(f"{label},{rng.normal(shift):.4f},{rng.normal(shift):.4f}")
        path = tmp_path / "data.csv"
        path.write_text("\n".join(rows) + "\n")
        rc = main(train_flags(path, tmp_path / "m.json", **{"--dict-size": "3",
                                                            "--iters": "3"}))
        assert rc == 0

    def test_non_utf8_csv_exits_1_with_its_line(self, tmp_path, capsys):
        path = tmp_path / "data.csv"
        path.write_bytes(b"label,f1\n+1,1.0\n-1,\xff\n")
        assert main(train_flags(path, tmp_path / "m.json")) == 1
        assert capsys.readouterr().err == (
            "error: line 3: byte 0xff is not UTF-8 (invalid start byte)\n")

    def test_oversized_cell_exits_1_with_its_line(self, tmp_path, capsys):
        path = tmp_path / "data.csv"
        path.write_text("label,f1\n+1,1.0\n-1," + "1" * 200_000 + "\n")
        assert main(train_flags(path, tmp_path / "m.json")) == 1
        assert capsys.readouterr().err == (
            "error: line 3: field larger than field limit (131072)\n")

    def test_nul_byte_exits_1_with_its_line(self, tmp_path, capsys):
        # Python 3.10's csv module rejects a NUL; later ones read it into the cell.
        path = tmp_path / "data.csv"
        path.write_bytes(b"label,f1\n+1,1.0\n-1,1\x00\n")
        assert main(train_flags(path, tmp_path / "m.json")) == 1
        assert capsys.readouterr().err.startswith("error: line 3: ")
