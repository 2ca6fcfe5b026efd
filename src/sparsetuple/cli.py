"""Batch command-line interface.

Subcommands: ``train``, ``predict``, ``eval``, ``cv``, ``sweep``.  Every
command is deterministic given its flags and seed.  ``cv`` and ``sweep``
train their folds through one runner, in this process or on one pool of
worker processes, and report a failing fold once every fold has trained.
Exit codes: 0 success, 1 data/model parse error, 2 configuration error
(including degenerate classes and dimension mismatches), 3 numerical
failure; each failure prints a one-line diagnostic on stderr.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import time
from dataclasses import astuple, fields, replace
from itertools import product
from pathlib import Path

import numpy as np

from .dataio import (_LABEL_TOKENS, Dataset, DatasetFormatError, _decode, kfold_split,
                     parse_csv, parse_svmlight)
from .measures import (
    DegenerateClassError,
    MeasureKind,
    auc_from_scores,
    prbep_from_scores,
    tuple_loss,
)
from .hyperloss import point_scores, predict
from .trainer import (
    Model,
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

# Each reported measure as a function of (truth, predicted labels, scores).  The
# lambdas look the measure functions up in this module when called, so a
# function patched here (as the benchmark's tracer does) serves every caller.
MEASURES = {
    "f1": lambda truth, labels, scores: 1.0 - tuple_loss(MeasureKind.F1, truth, labels),
    "prbep": lambda truth, labels, scores: prbep_from_scores(truth, scores),
    "auc": lambda truth, labels, scores: auc_from_scores(truth, scores),
}
SWEEP_HEADER = ("c1", "c2", "c3", *(f"{name}_median" for name in MEASURES), "status")


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
    parser.add_argument("--iters", type=int, default=defaults.iters, help="outer iterations")
    parser.add_argument("--dict-size", type=int, default=None,
                        help="dictionary size m (default min(2d, n))")
    parser.add_argument("--norm-cap", type=float, default=defaults.norm_cap,
                        help="squared-norm cap per dictionary element")
    parser.add_argument("--seed", type=int, default=defaults.seed)


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
        print(f"warning: dual ascent missed the norm cap's KKT tolerance in {missed} of "
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


def _score(model: Model, features: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The score and the +1/-1 label that ``model`` gives each row of ``features``."""
    codes = encode(model.dictionary, features, model.config)
    return point_scores(model.weights, codes), predict(model.weights, codes)


def _cmd_predict(args: argparse.Namespace) -> int:
    model = load_model(Path(args.model).read_bytes())
    dataset = _load_dataset(args.data, args.format)
    scores, labels = _score(model, dataset.features)
    lines = [f"{i}\t{float(scores[i])!r}\t{int(labels[i]):+d}" for i in range(dataset.n)]
    _write_text(args.out, "\n".join(lines) + "\n")
    return 0


def _raise_prediction_fault(lines: list[str]) -> None:
    """Raise the first fault the per-line rules find in stripped prediction lines."""
    for line_no, line in enumerate(lines, start=1):
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise DatasetFormatError("prediction line must be id<TAB>score<TAB>label", line_no)
        label = parts[2].strip()
        try:
            score = float(parts[1])
            int(label)  # a label that is no integer makes the line malformed
        except ValueError:
            raise DatasetFormatError("malformed prediction line", line_no) from None
        if not np.isfinite(score):
            raise DatasetFormatError(f"non-finite score {parts[1]!r}", line_no)
        if label not in _LABEL_TOKENS:  # the data files' label rule
            raise DatasetFormatError(f"label {label} not in {{+1, -1}}", line_no)
    raise DatasetFormatError("empty predictions file")


def _read_predictions(path: str) -> tuple[np.ndarray, np.ndarray]:
    text = _decode(Path(path).read_bytes())  # lines end at \n, \r\n or \r, as in text mode
    lines = [raw.strip() for raw in io.StringIO(text, newline=None)]
    try:  # the whole file at once; the per-line rules name the first fault
        _, scores, labels = zip(*(line.split("\t") for line in lines if line), strict=True)
        scores = np.fromiter(map(float, scores), np.float64, len(scores))
        labels = np.array([_LABEL_TOKENS.get(label.strip(), 0) for label in labels], np.int64)
        if np.all(np.isfinite(scores)) and np.all(labels != 0):
            return scores, labels
    except ValueError:
        pass
    _raise_prediction_fault(lines)


def _cmd_eval(args: argparse.Namespace) -> int:
    scores, labels = _read_predictions(args.predictions)
    truth = _load_dataset(args.truth, args.format)
    if truth.n != labels.size:
        raise ValueError(
            f"misaligned files: {labels.size} predictions vs {truth.n} truth points"
        )
    names = MEASURES if args.measure is None else (args.measure,)
    sys.stdout.write("".join(f"{name} {MEASURES[name](truth.labels, labels, scores)!r}\n"
                             for name in names))
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


def _available_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def _cv_plan(dataset: Dataset, config: TrainConfig, k: int,
             stratified: bool) -> tuple[TrainConfig, np.ndarray]:
    """The config every fold shares and the fold number of each point of ``dataset``."""
    # Resolve the dictionary size against the full dataset so the echoed
    # config is self-describing and every fold trains the same model shape.
    config = replace(config, dict_size=config.resolved_dict_size(dataset.n, dataset.d))
    folds = kfold_split(dataset.n, k, config.seed, stratified=stratified,
                        labels=dataset.labels if stratified else None)
    return config, folds


def _run_fold(dataset: Dataset | None, folds: np.ndarray | None, fold: int,
              config: TrainConfig) -> dict:
    """The report row of fold ``fold``; a fold worker passes no dataset and folds."""
    if dataset is None:
        dataset, folds = _worker_folds
    test_idx = np.flatnonzero(folds == fold)
    train_idx = np.flatnonzero(folds != fold)
    test_features, test_labels = dataset.features[test_idx], dataset.labels[test_idx]
    started = time.perf_counter()
    row = {
        "fold": fold,
        "seed": config.seed,
        "test_indices": [int(i) for i in test_idx],
        "n_test": int(test_labels.size),
        **dict.fromkeys(MEASURES),
        "seconds": None,
        "status": "ok",
        "note": None,
    }
    try:
        model = fit(Dataset(dataset.features[train_idx], dataset.labels[train_idx]), config)
    except DegenerateClassError as exc:
        row["status"] = "skipped"
        row["note"] = f"training skipped: {exc}"
        row["seconds"] = time.perf_counter() - started
        return row
    scores, predicted = _score(model, test_features)
    skipped = []
    for name, measure in MEASURES.items():
        try:
            row[name] = float(measure(test_labels, predicted, scores))
        except DegenerateClassError:
            skipped.append(name)
    if skipped:
        row["note"] = f"skipped {', '.join(skipped)}: degenerate class in test fold"
    row["seconds"] = time.perf_counter() - started
    return row


# The dataset and fold numbers of the run, in a fold worker process.
_worker_folds: tuple[Dataset, np.ndarray] | None = None


def _init_fold_worker(dataset: Dataset, folds: np.ndarray) -> None:
    global _worker_folds
    _worker_folds = (dataset, folds)


def _cv_report(config: TrainConfig, k: int, stratified: bool, rows: list[dict],
               include_timing: bool) -> dict:
    if not include_timing:
        for row in rows:
            row["seconds"] = None
    summary = {
        name: _five_number([row[name] for row in rows if row[name] is not None])
        for name in MEASURES
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


def _cross_validate_configs(dataset: Dataset, folds: np.ndarray, configs: list[TrainConfig],
                            k: int, stratified: bool, jobs: int | None,
                            include_timing: bool) -> list[dict | Exception]:
    """The cv report of each config, or the exception of its lowest failing fold.

    Trains every ``(fold, config)`` task, fold f with seed ``config.seed + f``,
    on ``min(jobs, tasks)`` worker processes; with one, in this process.
    Every task trains, also after a failure.  ``jobs=None`` means the CPUs
    this process may use, but no more than one worker per two tasks:
    starting a worker (fork, pool set-up and faulting in its own memory)
    costs about as much as training one small fold, so each worker should
    have at least two to train.  Workers receive ``dataset`` and ``folds``
    once, at start-up.
    """
    tasks = [(fold, replace(config, seed=config.seed + fold))
             for config in configs for fold in range(k)]
    if jobs is None:
        jobs = max(1, min(_available_cpus(), len(tasks) // 2))
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    workers = min(jobs, len(tasks))
    outcomes = []
    if workers <= 1:
        for task in tasks:
            try:
                outcomes.append(_run_fold(dataset, folds, *task))
            except Exception as exc:
                outcomes.append(exc)
    else:
        # Imported here, so commands that start no workers never load multiprocessing.
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        # fork: a worker inherits the imported numpy and the dataset instead of
        # re-importing numpy (about 0.2 s), as spawn and forkserver workers do.
        method = "fork" if "fork" in multiprocessing.get_all_start_methods() else None
        pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context(method),
                                   initializer=_init_fold_worker, initargs=(dataset, folds))
        try:
            futures = [pool.submit(_run_fold, None, None, *task) for task in tasks]
            outcomes = [future.exception() or future.result() for future in futures]
        finally:
            pool.shutdown(cancel_futures=True)
    reports = []
    for i, config in enumerate(configs):
        rows = outcomes[i * k:(i + 1) * k]
        failure = next((row for row in rows if isinstance(row, Exception)), None)
        reports.append(failure or _cv_report(config, k, stratified, rows, include_timing))
    return reports


def cross_validate(
    dataset: Dataset,
    config: TrainConfig,
    k: int,
    stratified: bool = False,
    jobs: int | None = None,
    include_timing: bool = True,
) -> dict:
    """k-fold cross-validation report, deterministic for a fixed seed.

    Fold f trains on the other folds with seed ``config.seed + f`` and is
    evaluated on its own points.  The folds run on ``min(jobs, k)`` worker
    processes; ``jobs`` defaults to the number of CPUs this process may use,
    capped at ``k // 2`` so that each worker trains at least two folds, and
    ``jobs=1`` trains them one after another in this process.  The
    report does not depend on ``jobs``: rows come back in fold order, and a
    failing fold raises the exception of the lowest failing fold once every
    fold has trained.  ``include_timing=False`` nulls the wall-clock fields
    so two identical runs produce identical bytes.
    """
    config, folds = _cv_plan(dataset, config, k, stratified)
    (report,) = _cross_validate_configs(dataset, folds, [config], k, stratified, jobs,
                                        include_timing)
    if isinstance(report, Exception):
        raise report
    return report


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
    grid = list(product(_parse_grid(args.c1_grid), _parse_grid(args.c2_grid),
                        _parse_grid(args.c3_grid)))
    # The dictionary size and the folds depend on the seed, k and the data
    # only, so every cell shares them.  A cell is its config, or the
    # exception that rejected it.
    config, folds = _cv_plan(dataset, config, args.k, args.stratified)
    cells = []
    for c1, c2, c3 in grid:
        try:
            cells.append(replace(config, c1=c1, c2=c2, c3=c3))
        except ValueError as exc:
            cells.append(exc)
    reports = iter(_cross_validate_configs(
        dataset, folds, [cell for cell in cells if isinstance(cell, TrainConfig)], args.k,
        args.stratified, args.jobs, include_timing=False))
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(SWEEP_HEADER)
    for (c1, c2, c3), cell in zip(grid, cells):
        report = cell if isinstance(cell, Exception) else next(reports)
        if isinstance(report, Exception):
            print(f"error: c1={c1!r} c2={c2!r} c3={c3!r}: "
                  f"{type(report).__name__}: {report}", file=sys.stderr)
            writer.writerow((repr(c1), repr(c2), repr(c3), *("" for _ in MEASURES), "failed"))
            continue
        medians = ["" if stats is None else repr(stats["median"])
                   for stats in report["summary"].values()]
        writer.writerow((repr(c1), repr(c2), repr(c3), *medians, "ok"))
    _write_text(args.out, buffer.getvalue())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sparsetuple",
        description="Train and evaluate tuple-level predictors over sparse codes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # Flags that several subcommands share, each defined once in a parent parser.
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", default="auto", choices=("auto", "svmlight", "csv"))
    data = argparse.ArgumentParser(add_help=False)
    data.add_argument("--data", required=True)
    config = argparse.ArgumentParser(add_help=False)
    _add_config_flags(config)
    folds = argparse.ArgumentParser(add_help=False)
    folds.add_argument("--k", type=int, default=10)
    folds.add_argument("--stratified", action="store_true")
    folds.add_argument("--jobs", type=int, default=None,
                       help="worker processes that train folds (default: the CPUs this process "
                            "may use, at most one per two folds; 1 trains them in this process)")

    train = sub.add_parser("train", parents=[data, fmt, config],
                           help="fit a model and write it to disk")
    train.add_argument("--out", required=True, help="model file path")
    train.add_argument("--trace", default=None, help="optional CSV of per-iteration objectives")
    train.set_defaults(func=_cmd_train)

    pred = sub.add_parser("predict", parents=[data, fmt],
                          help="score a dataset with a trained model")
    pred.add_argument("--model", required=True)
    pred.add_argument("--out", default="-", help="predictions TSV ('-' for stdout)")
    pred.set_defaults(func=_cmd_predict)

    evaluate = sub.add_parser("eval", parents=[fmt],
                              help="measure predictions against truth labels")
    evaluate.add_argument("--predictions", required=True)
    evaluate.add_argument("--truth", required=True)
    evaluate.add_argument("--measure", default=None, choices=list(MEASURES),
                          help="restrict output to one measure (default: all three)")
    evaluate.set_defaults(func=_cmd_eval)

    cv = sub.add_parser("cv", parents=[data, fmt, folds, config],
                        help="k-fold cross-validation report")
    cv.add_argument("--omit-timing", action="store_true",
                    help="null the wall-clock fields for byte-reproducible reports")
    cv.add_argument("--out", default="-", help="report JSON ('-' for stdout)")
    cv.set_defaults(func=_cmd_cv)

    sweep = sub.add_parser("sweep", parents=[data, fmt, folds, config],
                           help="cross-validate over a grid of tradeoff weights")
    sweep.add_argument("--c1-grid", required=True, help="comma-separated c1 values")
    sweep.add_argument("--c2-grid", required=True, help="comma-separated c2 values")
    sweep.add_argument("--c3-grid", required=True, help="comma-separated c3 values")
    sweep.add_argument("--out", default="-", help="sweep CSV ('-' for stdout)")
    sweep.set_defaults(func=_cmd_sweep)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, NumericalDivergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, (OSError, DatasetFormatError, ModelFormatError)):
            return 1  # unreadable or malformed input
        return 2 if isinstance(exc, ValueError) else 3  # bad configuration; numerical failure


if __name__ == "__main__":
    sys.exit(main())
