"""Spans around the calls into each sparsetuple layer, for the traced run.

The traced run patches module attributes that the program looks up at call
time, so it instruments the program from the benchmark's own files without
editing it.  ``trainer.fit`` reaches ``sparse_coding.solve_dictionary``,
``dual_ascent_alphas`` and ``code_gradient_batch`` and
``hyperloss.argmax_F_oracle`` and ``upper_bound`` through their modules, and
the ascent's own solves and the oracle call inside ``upper_bound`` resolve
through the same module globals, so inner spans nest under outer ones.  The
CLI reaches parsing, fitting, encoding, model I/O, the measures and
cross-validation through names bound in ``sparsetuple.cli``; those are
patched there.

Spans stay in memory; the caller writes them out when the run ends.
"""

from __future__ import annotations

import functools
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager

from sparsetuple import cli, hyperloss, sparse_coding

PHASES = ("dictionary", "codes", "weights", "multipliers")


class Tracer:
    """Records nested spans (name, start, end, parent, command) in memory.

    ``events`` holds the stages ``fit`` reports to its observer, as
    ``(fit span id, stage, iteration, time)``.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[dict] = []
        self.events: list[tuple[int, str, int, float]] = []
        self.command: str | None = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = {
            "id": len(self.spans),
            "name": name,
            "start": self.clock(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "command": self.command,
            "attrs": {},
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            self._stack.pop()
            record["end"] = self.clock()

    @contextmanager
    def command_span(self, command: str):
        """Root span of one CLI command; every span inside carries its id."""
        self.command = command
        try:
            with self.span(f"cli.{command}") as record:
                yield record
        finally:
            self.command = None

    def wrap(self, func, annotate=None):
        """``func`` with a span named ``<module>.<function>`` around each call.

        ``annotate(args, result)`` may return attributes to store on the span.
        """
        name = f"{func.__module__.rsplit('.', 1)[-1]}.{func.__name__}"

        @functools.wraps(func)
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = func(*args, **kwargs)
                if annotate is not None:
                    record["attrs"].update(annotate(args, result))
                return result

        return traced

    def wrap_fit(self, fit):
        """``fit`` with a span, and an observer that timestamps each stage."""

        @functools.wraps(fit)
        def traced(data, config, observer=None):
            with self.span("trainer.fit") as record:
                def observe(stage, iteration):
                    self.events.append((record["id"], stage, iteration, self.clock()))
                    if observer is not None:
                        observer(stage, iteration)

                model = fit(data, config, observer=observe)
                record["attrs"]["objective_final"] = model.trace[-1].objective
                return model

        return traced


def _solve_dictionary_flops(args, result) -> dict:
    # X is d-by-n and S is m-by-n: S S' and S X' products, an LU of the
    # m-by-m system and its two triangular solves for d right-hand sides.
    X, S = args[0], args[1]
    d, n = X.shape
    m = S.shape[0]
    return {"flops": 2 * m * m * n + 2 * m * d * n + 2 * m ** 3 // 3 + 2 * m * m * d}


def _patch_points(tracer: Tracer):
    return [
        (sparse_coding, "solve_dictionary", tracer.wrap(sparse_coding.solve_dictionary,
                                                        _solve_dictionary_flops)),
        (sparse_coding, "dual_ascent_alphas", tracer.wrap(
            sparse_coding.dual_ascent_alphas, lambda args, result: {"converged": bool(result[1])})),
        (sparse_coding, "code_gradient_batch", tracer.wrap(sparse_coding.code_gradient_batch)),
        (hyperloss, "argmax_F_oracle", tracer.wrap(hyperloss.argmax_F_oracle)),
        (hyperloss, "upper_bound", tracer.wrap(hyperloss.upper_bound)),
        (cli, "parse_svmlight", tracer.wrap(
            cli.parse_svmlight, lambda args, result: {"bytes": len(args[0])})),
        (cli, "fit", tracer.wrap_fit(cli.fit)),
        (cli, "encode", tracer.wrap(cli.encode)),
        (cli, "save_model", tracer.wrap(cli.save_model)),
        (cli, "load_model", tracer.wrap(cli.load_model)),
        (cli, "tuple_loss", tracer.wrap(cli.tuple_loss)),
        (cli, "prbep_from_scores", tracer.wrap(cli.prbep_from_scores)),
        (cli, "auc_from_scores", tracer.wrap(cli.auc_from_scores)),
        (cli, "cross_validate", tracer.wrap(cli.cross_validate)),
    ]


@contextmanager
def installed(tracer: Tracer):
    """Route the program's layer calls through ``tracer`` until exit."""
    points = _patch_points(tracer)
    originals = [(module, attr, getattr(module, attr)) for module, attr, _ in points]
    try:
        for module, attr, wrapper in points:
            setattr(module, attr, wrapper)
        yield tracer
    finally:
        for module, attr, original in originals:
            setattr(module, attr, original)


def duration(span: dict) -> float:
    return span["end"] - span["start"]


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> its duration minus the durations of its direct children.

    Spans come from one thread, so children never overlap one another.
    """
    covered: dict[int, float] = defaultdict(float)
    for span in spans:
        if span["parent"] is not None:
            covered[span["parent"]] += duration(span)
    return {span["id"]: duration(span) - covered[span["id"]] for span in spans}


def command_layer_seconds(spans: list[dict]) -> dict[str, float]:
    """Per command, the time spent in layer calls made directly by the CLI."""
    roots = {span["id"]: span["command"] for span in spans if span["parent"] is None}
    totals: dict[str, float] = defaultdict(float)
    for span in spans:
        if span["parent"] in roots:
            totals[roots[span["parent"]]] += duration(span)
    return dict(totals)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer figures of one traced train/predict/eval/cv chain.

    Everything except ``cli.cross_validate_s`` is taken from the
    train/predict/eval chain; the fits inside cross-validation are left out
    so each figure describes one model's life.  ``cli.overhead_s`` and
    ``trace.fit_overhead_s`` need the untraced run and are added by the
    caller.
    """
    spans = tracer.spans
    own = self_times(spans)
    by_id = {span["id"]: span for span in spans}

    def select(name, commands=("train", "predict", "eval"), parent=None):
        return [
            span for span in spans
            if span["name"] == name and span["command"] in commands
            and (parent is None or by_id[span["parent"]]["name"] == parent)
        ]

    def total(selected):
        return sum(duration(span) for span in selected)

    parses = select("dataio.parse_svmlight")
    solves = select("sparse_coding.solve_dictionary", ("train",))
    ascents = select("sparse_coding.dual_ascent_alphas", ("train",))
    oracles = select("hyperloss.argmax_F_oracle", ("train",))
    (fit,) = select("trainer.fit", ("train",))
    (encode,) = select("trainer.encode", ("predict",))
    (save,) = select("trainer.save_model", ("train",))
    (load,) = select("trainer.load_model", ("predict",))
    (cross_validate,) = select("cli.cross_validate", ("cv",))
    scores = [span for name in ("measures.tuple_loss", "measures.prbep_from_scores",
                                "measures.auc_from_scores")
              for span in select(name, ("eval",))]

    phases = dict.fromkeys(PHASES, 0.0)
    iterations = []
    previous = iteration_start = fit["start"]
    for span_id, stage, _, stamp in tracer.events:
        if span_id != fit["id"]:
            continue
        phases[stage] += stamp - previous
        previous = stamp
        if stage == PHASES[-1]:
            iterations.append(stamp - iteration_start)
            iteration_start = stamp

    solve_seconds = sum(own[span["id"]] for span in solves)
    oracle_seconds = total(oracles)
    return {
        "dataio.parse_svmlight_s": total(parses),
        "dataio.parse_mb_per_s": sum(span["attrs"]["bytes"] for span in parses) / total(parses) / 1e6,
        "sparse_coding.solve_dictionary_s": solve_seconds,
        "sparse_coding.solve_dictionary_calls": len(solves),
        "sparse_coding.solve_dictionary_gflops":
            sum(span["attrs"]["flops"] for span in solves) / solve_seconds / 1e9,
        "sparse_coding.dual_ascent_self_s": sum(own[span["id"]] for span in ascents),
        "sparse_coding.dual_ascent_calls": len(ascents),
        "sparse_coding.dual_ascent_converged_share":
            sum(span["attrs"]["converged"] for span in ascents) / len(ascents),
        "hyperloss.argmax_oracle_s": oracle_seconds,
        "hyperloss.argmax_oracle_calls": len(oracles),
        "hyperloss.argmax_oracle_ms_per_call": 1e3 * oracle_seconds / len(oracles),
        "hyperloss.upper_bound_s": total(select("hyperloss.upper_bound", ("train",))),
        "sparse_coding.code_gradient_batch_fit_s": total(
            select("sparse_coding.code_gradient_batch", ("train",), parent="trainer.fit")),
        "sparse_coding.code_gradient_batch_encode_s": total(
            select("sparse_coding.code_gradient_batch", ("predict",), parent="trainer.encode")),
        "trainer.fit_s": duration(fit),
        "trainer.fit_self_s": own[fit["id"]],
        "trainer.iteration_ms": 1e3 * statistics.median(iterations),
        **{f"trainer.phase_{stage}_s": seconds for stage, seconds in phases.items()},
        "trainer.encode_s": duration(encode),
        "trainer.save_model_s": duration(save),
        "trainer.load_model_s": duration(load),
        "trainer.objective_final": fit["attrs"]["objective_final"],
        "measures.scores_s": total(scores),
        "cli.cross_validate_s": duration(cross_validate),
    }
