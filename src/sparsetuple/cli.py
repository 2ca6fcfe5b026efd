"""Batch command-line interface.

Subcommands: ``train``, ``predict``, ``eval``, ``cv``, ``sweep``.  Every
command is deterministic given its flags and seed.  Exit codes: 0 success,
1 data/model parse error, 2 configuration error (including degenerate
classes and dimension mismatches), 3 numerical failure; each failure prints
a one-line diagnostic on stderr.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import astuple, fields, replace
from pathlib import Path

import numpy as np

from .dataio import Dataset, DatasetFormatError, kfold_split, parse_csv, parse_svmlight
from .measures import (
    DegenerateClassError,
    MeasureKind,
    UndefinedTupleLossError,
    auc_from_scores,
    prbep_from_scores,
    tuple_loss,
)
from .hyperloss import point_scores, predict
from .trainer import (
    ModelFormatError,
    NumericalDivergenceError,
    TraceEntry,
    TrainConfig,
    config_document,
    encode,
    fit,
    load_model,
    save_model,
)

__all__ = ["main", "build_parser", "cross_validate"]

SWEEP_HEADER = ("c1", "c2", "c3", "f1_median", "prbep_median", "auc_median", "status")


def _load_dataset(path: str, fmt: str = "auto") -> Dataset:
    data = Path(path).read_bytes()
    if fmt == "csv" or (fmt == "auto" and path.endswith(".csv")):
        return parse_csv(data)
    return parse_svmlight(data)


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    defaults = TrainConfig()
    parser.add_argument("--measure", default="f1", choices=[k.value for k in MeasureKind],
                        help="measure whose loss bound is minimized during training")
    parser.add_argument("--c1", type=float, default=defaults.c1, help="sparsity weight")
    parser.add_argument("--c2", type=float, default=defaults.c2, help="predictor complexity weight")
    parser.add_argument("--c3", type=float, default=defaults.c3, help="loss bound weight")
    parser.add_argument("--eta", type=float, default=defaults.eta, help="gradient step size")
    parser.add_argument("--eta-backoff", action="store_true",
                        help="halve the step size whenever a step raises the objective")
    parser.add_argument("--iters", type=int, default=defaults.iters, help="outer iterations")
    parser.add_argument("--dict-size", type=int, default=None,
                        help="dictionary size m (default min(2d, n))")
    parser.add_argument("--norm-cap", type=float, default=defaults.norm_cap,
                        help="squared-norm cap per dictionary element")
    parser.add_argument("--eps", type=float, default=defaults.eps, help="reweighting floor")
    parser.add_argument("--seed", type=int, default=defaults.seed)
    parser.add_argument("--dual-rate", type=float, default=defaults.dual_rate)
    parser.add_argument("--dual-steps", type=int, default=defaults.dual_steps)


def _config_from_args(args: argparse.Namespace) -> TrainConfig:
    return TrainConfig(**{f.name: getattr(args, f.name) for f in fields(TrainConfig)})


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def _cmd_train(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    dataset = _load_dataset(args.data, args.format)
    model = fit(dataset, config)
    Path(args.out).write_bytes(save_model(model))
    missed = model.ascent_converged.count(False)
    if missed:
        elements = model.dictionary.elements
        ratio = float(np.sum(elements * elements, axis=0).max()) / config.norm_cap
        print(f"warning: dual ascent missed the norm cap in {missed} of "
              f"{len(model.ascent_converged)} iterations; largest squared column norm "
              f"is {ratio:.4f} x --norm-cap", file=sys.stderr)
    if args.trace:
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(["iteration"] + [f.name for f in fields(TraceEntry)])
        for i, entry in enumerate(model.trace):
            writer.writerow([i] + [repr(value) for value in astuple(entry)])
        Path(args.trace).write_text(buffer.getvalue(), encoding="utf-8")
    return 0


def _cmd_predict(args: argparse.Namespace) -> int:
    model = load_model(Path(args.model).read_bytes())
    dataset = _load_dataset(args.data, args.format)
    codes = encode(model.dictionary, dataset.features, model.config)
    scores = point_scores(model.weights, codes)
    labels = predict(model.weights, codes)
    lines = []
    for i in range(dataset.n):
        identifier = dataset.ids[i] if dataset.ids is not None else str(i)
        lines.append(f"{identifier}\t{float(scores[i])!r}\t{int(labels[i]):+d}")
    _write_text(args.out, "\n".join(lines) + "\n")
    return 0


def _read_predictions(path: str) -> tuple[np.ndarray, np.ndarray]:
    scores, labels = [], []
    text = Path(path).read_text(encoding="utf-8")
    for line_no, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise DatasetFormatError("prediction line must be id<TAB>score<TAB>label", line_no)
        try:
            score = float(parts[1])
            label = int(parts[2])
        except ValueError:
            raise DatasetFormatError("malformed prediction line", line_no) from None
        if not np.isfinite(score):
            raise DatasetFormatError(f"non-finite score {parts[1]!r}", line_no)
        if label not in (-1, 1):
            raise DatasetFormatError(f"label {label} not in {{+1, -1}}", line_no)
        scores.append(score)
        labels.append(label)
    if not labels:
        raise DatasetFormatError("empty predictions file")
    return np.array(scores), np.array(labels, dtype=np.int64)


def _cmd_eval(args: argparse.Namespace) -> int:
    scores, labels = _read_predictions(args.predictions)
    truth = _load_dataset(args.truth, args.format)
    if truth.n != labels.size:
        raise ValueError(
            f"misaligned files: {labels.size} predictions vs {truth.n} truth points"
        )
    wanted = args.measure
    results = []
    if wanted in (None, "f1"):
        results.append(("f1", 1.0 - tuple_loss(MeasureKind.F1, truth.labels, labels)))
    if wanted in (None, "prbep"):
        results.append(("prbep", prbep_from_scores(truth.labels, scores)))
    if wanted in (None, "auc"):
        results.append(("auc", auc_from_scores(truth.labels, scores)))
    for name, value in results:
        sys.stdout.write(f"{name} {value!r}\n")
    return 0


def _five_number(values: list[float]) -> dict | None:
    if not values:
        return None
    q = np.percentile(np.array(values, dtype=np.float64), [0, 25, 50, 75, 100])
    return {
        "min": float(q[0]),
        "p25": float(q[1]),
        "median": float(q[2]),
        "p75": float(q[3]),
        "max": float(q[4]),
    }


def _run_fold(payload) -> dict:
    fold, train_features, train_labels, test_features, test_labels, test_indices, config = payload
    started = time.perf_counter()
    row = {
        "fold": fold,
        "seed": config.seed,
        "test_indices": [int(i) for i in test_indices],
        "n_test": int(test_labels.size),
        "f1": None,
        "prbep": None,
        "auc": None,
        "seconds": None,
        "status": "ok",
        "note": None,
    }
    try:
        model = fit(Dataset(train_features, train_labels), config)
    except DegenerateClassError as exc:
        row["status"] = "skipped"
        row["note"] = f"training skipped: {exc}"
        row["seconds"] = time.perf_counter() - started
        return row
    codes = encode(model.dictionary, test_features, config)
    scores = point_scores(model.weights, codes)
    predicted = predict(model.weights, codes)
    row["f1"] = float(1.0 - tuple_loss(MeasureKind.F1, test_labels, predicted))
    skipped = []
    try:
        row["prbep"] = float(prbep_from_scores(test_labels, scores))
    except DegenerateClassError:
        skipped.append("prbep")
    try:
        row["auc"] = float(auc_from_scores(test_labels, scores))
    except DegenerateClassError:
        skipped.append("auc")
    if skipped:
        row["note"] = f"skipped {', '.join(skipped)}: degenerate class in test fold"
    row["seconds"] = time.perf_counter() - started
    return row


def cross_validate(
    dataset: Dataset,
    config: TrainConfig,
    k: int,
    stratified: bool = False,
    jobs: int = 1,
    include_timing: bool = True,
) -> dict:
    """k-fold cross-validation report, deterministic for a fixed seed.

    Fold f trains on the other folds with seed ``config.seed + f`` and is
    evaluated on its own points; folds may run in parallel (``jobs``)
    without changing the report.  ``include_timing=False`` nulls the
    wall-clock fields so two identical runs produce identical bytes.
    """
    # Resolve the dictionary size against the full dataset so the echoed
    # config is self-describing and every fold trains the same model shape.
    config = replace(config, dict_size=config.resolved_dict_size(dataset.n, dataset.d))
    plan = kfold_split(dataset.n, k, config.seed, stratified=stratified,
                       labels=dataset.labels if stratified else None)
    payloads = []
    for fold in range(k):
        test_idx = plan.test_indices(fold)
        train_idx = plan.train_indices(fold)
        payloads.append((
            fold,
            dataset.features[train_idx],
            dataset.labels[train_idx],
            dataset.features[test_idx],
            dataset.labels[test_idx],
            test_idx,
            replace(config, seed=config.seed + fold),
        ))
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(_run_fold, payloads))
    else:
        rows = [_run_fold(payload) for payload in payloads]
    if not include_timing:
        for row in rows:
            row["seconds"] = None
    summary = {
        name: _five_number([row[name] for row in rows if row[name] is not None])
        for name in ("f1", "prbep", "auc")
    }
    return {
        "k": k,
        "seed": config.seed,
        "stratified": stratified,
        "measure": config.measure.value,
        "config": config_document(config),
        "folds": rows,
        "summary": summary,
    }


def _cmd_cv(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    dataset = _load_dataset(args.data, args.format)
    report = cross_validate(
        dataset,
        config,
        k=args.k,
        stratified=args.stratified,
        jobs=args.jobs,
        include_timing=not args.omit_timing,
    )
    _write_text(args.out, json.dumps(report, indent=2) + "\n")
    return 0


def _parse_grid(text: str) -> list[float]:
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ValueError(f"malformed grid {text!r}; expected comma-separated numbers") from None
    if not values:
        raise ValueError("grids must be nonempty")
    return values


def _cmd_sweep(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    dataset = _load_dataset(args.data, args.format)
    c1_grid = _parse_grid(args.c1_grid)
    c2_grid = _parse_grid(args.c2_grid)
    c3_grid = _parse_grid(args.c3_grid)
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(SWEEP_HEADER)
    for c1 in c1_grid:
        for c2 in c2_grid:
            for c3 in c3_grid:
                try:
                    cell_config = replace(config, c1=c1, c2=c2, c3=c3)
                    report = cross_validate(
                        dataset, cell_config, k=args.k,
                        stratified=args.stratified, jobs=args.jobs,
                        include_timing=False,
                    )
                except Exception as exc:
                    print(f"error: c1={c1!r} c2={c2!r} c3={c3!r}: "
                          f"{type(exc).__name__}: {exc}", file=sys.stderr)
                    writer.writerow((repr(c1), repr(c2), repr(c3), "", "", "", "failed"))
                    continue
                medians = []
                for name in ("f1", "prbep", "auc"):
                    stats = report["summary"][name]
                    medians.append("" if stats is None else repr(stats["median"]))
                writer.writerow((repr(c1), repr(c2), repr(c3), *medians, "ok"))
    _write_text(args.out, buffer.getvalue())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sparsetuple",
        description="Train and evaluate tuple-level predictors over sparse codes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="fit a model and write it to disk")
    train.add_argument("--data", required=True)
    train.add_argument("--format", default="auto", choices=("auto", "svmlight", "csv"))
    train.add_argument("--out", required=True, help="model file path")
    train.add_argument("--trace", default=None, help="optional CSV of per-iteration objectives")
    _add_config_flags(train)
    train.set_defaults(func=_cmd_train)

    pred = sub.add_parser("predict", help="score a dataset with a trained model")
    pred.add_argument("--model", required=True)
    pred.add_argument("--data", required=True)
    pred.add_argument("--format", default="auto", choices=("auto", "svmlight", "csv"))
    pred.add_argument("--out", default="-", help="predictions TSV ('-' for stdout)")
    pred.set_defaults(func=_cmd_predict)

    evaluate = sub.add_parser("eval", help="measure predictions against truth labels")
    evaluate.add_argument("--predictions", required=True)
    evaluate.add_argument("--truth", required=True)
    evaluate.add_argument("--format", default="auto", choices=("auto", "svmlight", "csv"))
    evaluate.add_argument("--measure", default=None, choices=[k.value for k in MeasureKind],
                          help="restrict output to one measure (default: all three)")
    evaluate.set_defaults(func=_cmd_eval)

    cv = sub.add_parser("cv", help="k-fold cross-validation report")
    cv.add_argument("--data", required=True)
    cv.add_argument("--format", default="auto", choices=("auto", "svmlight", "csv"))
    cv.add_argument("--k", type=int, default=10)
    cv.add_argument("--stratified", action="store_true")
    cv.add_argument("--jobs", type=int, default=1, help="folds trained in parallel")
    cv.add_argument("--omit-timing", action="store_true",
                    help="null the wall-clock fields for byte-reproducible reports")
    cv.add_argument("--out", default="-", help="report JSON ('-' for stdout)")
    _add_config_flags(cv)
    cv.set_defaults(func=_cmd_cv)

    sweep = sub.add_parser("sweep", help="cross-validate over a grid of tradeoff weights")
    sweep.add_argument("--data", required=True)
    sweep.add_argument("--format", default="auto", choices=("auto", "svmlight", "csv"))
    sweep.add_argument("--c1-grid", required=True, help="comma-separated c1 values")
    sweep.add_argument("--c2-grid", required=True, help="comma-separated c2 values")
    sweep.add_argument("--c3-grid", required=True, help="comma-separated c3 values")
    sweep.add_argument("--k", type=int, default=10)
    sweep.add_argument("--stratified", action="store_true")
    sweep.add_argument("--jobs", type=int, default=1)
    sweep.add_argument("--out", default="-", help="sweep CSV ('-' for stdout)")
    _add_config_flags(sweep)
    sweep.set_defaults(func=_cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DatasetFormatError, ModelFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DegenerateClassError, UndefinedTupleLossError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalDivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
