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

from .dataio import (Dataset, DatasetFormatError, kfold_split, parse_csv, parse_predictions,
                     parse_svmlight)
from .measures import (
    DegenerateClassError,
    MeasureKind,
    auc_from_scores,
    prbep_from_scores,
    tuple_loss,
)
from .hyperloss import predict
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


_LINES_PER_WRITE = 4096  # predictions formatted and written at a time


class _SizedReader(io.BufferedReader):
    """A binary file whose ``len`` is its size in bytes."""

    # Only bench/tracing.py reads it: it records len() of parse_svmlight's argument.
    def __len__(self) -> int:
        return os.fstat(self.fileno()).st_size


def _load_dataset(path: str, fmt: str = "auto", min_width: int = 0) -> Dataset:
    """The dataset at ``path``, read as a stream; svmlight gets at least ``min_width`` columns.

    svmlight is read twice, so a file that cannot seek (a pipe) is read into memory first.
    """
    with _SizedReader(io.FileIO(path)) as file:
        if fmt == "csv" or (fmt == "auto" and path.endswith(".csv")):
            return parse_csv(file)
        return parse_svmlight(file if file.seekable() else file.read(), min_width)


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


def _write_text(path: str | None, pieces) -> None:
    """Write the text ``pieces`` in order to ``path``, or to stdout for None or '-'."""
    if path is None or path == "-":
        sys.stdout.writelines(pieces)
    else:
        with open(path, "w", encoding="utf-8") as out:
            out.writelines(pieces)


def _cmd_train(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    dataset = _load_dataset(args.data, args.format)
    model = fit(dataset, config)
    _write_text(args.out, (save_model(model).decode("utf-8"),))
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
        _write_text(args.trace, (buffer.getvalue(),))
    return 0


def _score(model: Model, features: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The score and the +1/-1 label that ``model`` gives each row of ``features``.

    A score is ``w . P x`` for the ridge projection ``P``, that is ``v . x``
    with ``v = P'w``.  ``encode`` is linear, so the codes of the d unit
    vectors are ``P`` itself: one m-by-d array, and no m-by-n codes.
    """
    d = model.dictionary.d
    if features.shape[1] != d:
        raise ValueError(f"dimension mismatch: features {features.shape} vs dictionary with d={d}")
    scores = features @ (model.weights @ encode(model.dictionary, np.eye(d), model.config))
    # The labels predict gives these scores, each read as a one-entry code of unit weight.
    return scores, predict(np.ones(1), scores[np.newaxis])


def _cmd_predict(args: argparse.Namespace) -> int:
    model = load_model(Path(args.model).read_bytes())
    # Columns that are zero on every line leave no svmlight entry.
    dataset = _load_dataset(args.data, args.format, model.dictionary.d)
    scores, labels = _score(model, dataset.features)
    _write_text(args.out, _prediction_lines(scores, labels))
    return 0


def _prediction_lines(scores: np.ndarray, labels: np.ndarray):
    """The ``id<TAB>score<TAB>label`` lines, ``_LINES_PER_WRITE`` to a piece of text."""
    for start in range(0, scores.size, _LINES_PER_WRITE):
        stop = start + _LINES_PER_WRITE
        rows = zip(range(start, stop), scores[start:stop].tolist(), labels[start:stop].tolist())
        yield "".join(f"{i}\t{s!r}\t{y:+d}\n" for i, s, y in rows)


def _cmd_eval(args: argparse.Namespace) -> int:
    with open(args.predictions, "rb") as file:
        scores, labels = parse_predictions(file)
    truth = _load_dataset(args.truth, args.format)
    if truth.n != labels.size:
        raise ValueError(
            f"misaligned files: {labels.size} predictions vs {truth.n} truth points"
        )
    names = MEASURES if args.measure is None else (args.measure,)
    _write_text(None, [f"{name} {MEASURES[name](truth.labels, labels, scores)!r}\n"
                       for name in names])  # a list: a failing measure leaves stdout empty
    return 0


def _summary(rows: list[dict]) -> dict:
    """Each measure's min, quartiles and max over the fold rows that score it, or None."""
    summary = dict.fromkeys(MEASURES)
    for name in MEASURES:
        values = [row[name] for row in rows if row[name] is not None]
        if values:
            q = np.percentile(np.array(values, dtype=np.float64), [0, 25, 50, 75, 100])
            summary[name] = dict(zip(("min", "p25", "median", "p75", "max"), q.tolist()))
    return summary


def _available_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def _run_fold(dataset: Dataset | None, folds: np.ndarray | None, fold: int,
              config: TrainConfig, cell: dict) -> dict:
    """The report row of fold ``fold`` trained with the trade-off weights ``cell``.

    A fold worker passes no dataset and folds.  A cell that ``TrainConfig``
    rejects raises here, as a fold that fails in training does.
    """
    if dataset is None:
        dataset, folds = _worker_folds
    config = replace(config, seed=config.seed + fold, **cell)
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
    else:
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


def _fold_rows(dataset: Dataset, config: TrainConfig, k: int, stratified: bool, cells: list[dict],
               jobs: int | None) -> tuple[TrainConfig, list[list[dict] | Exception]]:
    """The shared config, and each cell's fold rows or the exception of its lowest failing fold.

    The dictionary size is resolved against the full dataset, so every fold
    trains the model shape the config echoes, and the folds are
    ``kfold_split(dataset.n, k, config.seed)``, given the labels when
    ``stratified``.  A cell is a dict of trade-off weights: its fold f trains
    with ``replace(config, seed=config.seed + f, **cell)``, so a cell that
    ``TrainConfig`` rejects fails its folds.  Rows come in fold order.  Every
    ``(cell, fold)`` task trains, also after a failure, on ``min(jobs, tasks)``
    worker processes; with one, in this process.  ``jobs=None`` means the
    CPUs this process may use, but no more than one worker per two tasks:
    starting a worker (fork, pool set-up and faulting in its own memory)
    costs about as much as training one small fold, so each worker should
    have at least two to train.  Workers get ``dataset`` and the folds once.
    """
    config = replace(config, dict_size=config.resolved_dict_size(dataset.n, dataset.d))
    folds = kfold_split(dataset.n, k, config.seed, dataset.labels if stratified else None)
    tasks = [(fold, config, cell) for cell in cells for fold in range(k)]
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
    groups = (outcomes[start:start + k] for start in range(0, len(outcomes), k))
    return config, [next((row for row in rows if isinstance(row, Exception)), rows)
                    for rows in groups]


def cross_validate(
    dataset: Dataset,
    config: TrainConfig,
    k: int,
    stratified: bool = False,
    jobs: int | None = None,
    include_timing: bool = True,
) -> dict:
    """k-fold cross-validation report, deterministic for a fixed seed.

    The fold runner trains ``config`` as its one cell, ``{}``: the folds are
    ``kfold_split(dataset.n, k, config.seed)``, given the dataset's labels
    when ``stratified``, and fold f trains on the other folds with seed
    ``config.seed + f`` and is evaluated on its own points; the summary
    gives each measure's five numbers over the folds that score it.  The
    folds run on ``min(jobs, k)`` worker processes; ``jobs`` defaults to the
    number of CPUs this process may use, capped at ``k // 2`` so that each
    worker trains at least two folds, and ``jobs=1`` trains them one after
    another in this process.  The report does not depend on ``jobs``: rows
    come back in fold order, and a failing fold raises the exception of the
    lowest failing fold once every fold has trained.  The echoed config
    carries the dictionary size resolved against the full dataset.
    ``include_timing=False`` nulls the wall-clock fields so two identical
    runs produce identical bytes.
    """
    config, (rows,) = _fold_rows(dataset, config, k, stratified, [{}], jobs)
    if isinstance(rows, Exception):
        raise rows
    if not include_timing:
        for row in rows:
            row["seconds"] = None
    return {
        "k": k,
        "seed": config.seed,
        "stratified": stratified,
        "measure": config.measure.value,
        "config": config_document(config),
        "folds": rows,
        "summary": _summary(rows),
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
    _write_text(args.out, (json.dumps(report, indent=2) + "\n",))
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
    _, results = _fold_rows(dataset, config, args.k, args.stratified,
                            [dict(c1=c1, c2=c2, c3=c3) for c1, c2, c3 in grid], args.jobs)
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(SWEEP_HEADER)
    for (c1, c2, c3), rows in zip(grid, results):
        if isinstance(rows, Exception):
            print(f"error: c1={c1!r} c2={c2!r} c3={c3!r}: "
                  f"{type(rows).__name__}: {rows}", file=sys.stderr)
            writer.writerow((repr(c1), repr(c2), repr(c3), *("" for _ in MEASURES), "failed"))
            continue
        medians = ["" if stats is None else repr(stats["median"])
                   for stats in _summary(rows).values()]
        writer.writerow((repr(c1), repr(c2), repr(c3), *medians, "ok"))
    _write_text(args.out, (buffer.getvalue(),))
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
    train.add_argument("--out", required=True, help="model JSON ('-' for stdout)")
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
