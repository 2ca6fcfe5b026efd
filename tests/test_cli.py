import json
import re

import numpy as np
import pytest

from sparsetuple.cli import SWEEP_HEADER, main
from sparsetuple.dataio import kfold_split, serialize_svmlight
from sparsetuple.trainer import load_model

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

    def test_missed_dual_ascent_warns(self, tmp_path, capsys):
        path = tmp_path / "gate.svm"
        path.write_text(serialize_svmlight(make_gaussian_dataset()))
        # With train_flags' other values, the acceptance gate's configuration.
        gate = {"--iters": 100, "--dict-size": 20}
        model_path = tmp_path / "gate.json"
        assert main(train_flags(path, model_path, **gate)) == 0
        assert re.fullmatch(
            r"warning: dual ascent missed the norm cap in [1-9]\d* of 100 iterations; "
            r"largest squared column norm is \d+\.\d{4} x --norm-cap\n",
            capsys.readouterr().err,
        )
        assert load_model(model_path.read_bytes()).ascent_converged is None
        loose = train_flags(path, tmp_path / "loose.json", **gate, **{"--norm-cap": "1e6"})
        assert main(loose) == 0
        assert capsys.readouterr().err == ""

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

    def test_dimension_mismatch_exits_2(self, trained, tmp_path):
        _, _, model_path = trained
        other = tmp_path / "wide.svm"
        other.write_text("+1 1:1 9:1\n-1 2:1 9:0.5\n")
        rc = main(["predict", "--model", str(model_path), "--data", str(other),
                   "--out", str(tmp_path / "p.tsv")])
        assert rc == 2

    @pytest.mark.parametrize(
        "path, value",
        [
            (("dictionary", 0), "x"),
            (("weights", 0), float("nan")),
            (("trace", 0, "objective"), [1.0]),
            (("d",), "three"),
            (("config", "dual_steps"), 2.5),
            (("config", "bogus"), 1),
        ],
        ids=["dictionary-str", "weights-nan", "trace-list", "d-str", "dual_steps-float",
             "unknown-config-key"],
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

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_score_exits_1_with_its_line(self, tmp_path, capsys, bad):
        truth, preds = self.write_files(tmp_path, [1, -1, 1], [1.0, float(bad), 0.5], [1, -1, 1])
        rc = main(["eval", "--predictions", str(preds), "--truth", str(truth)])
        assert rc == 1
        assert f"line 2: non-finite score '{bad}'" in capsys.readouterr().err

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

    def test_partition_matches_kfold_split(self, data_file, tmp_path):
        data_path, ds = data_file
        out = tmp_path / "report.json"
        assert main(self.cv_flags(data_path, out)) == 0
        report = json.loads(out.read_text())
        plan = kfold_split(ds.n, 5, seed=11)
        for fold, row in enumerate(report["folds"]):
            assert row["test_indices"] == plan.test_indices(fold).tolist()

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
        assert main(self.cv_flags(data_path, serial) + ["--omit-timing"]) == 0
        assert main(self.cv_flags(data_path, parallel)
                    + ["--omit-timing", "--jobs", "2"]) == 0
        assert serial.read_bytes() == parallel.read_bytes()

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
            assert row["f1"] is not None


class TestSweep:
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
