"""Alternating training loop, test-time encoding, and model serialization.

One outer iteration updates, in order: every code (one gradient step each),
the predictor weights (one gradient step), and the constraint multipliers
with the dictionary they define (projected Newton ascent on the dual).  The
next iteration, and the saved model, use that dictionary; the first uses the
closed-form solve at the initial codes and multipliers.  The maximizer tie
set that drives the loss gradients is recomputed once per iteration from the
previous iterate's codes and weights and held fixed inside the iteration;
the search that scores the end of one iteration supplies it to the next.

Test-time codes are the ridge codes ``(D'D + c1 I)^-1 D'x`` of the frozen
dictionary; :func:`encode` computes them.  :func:`initialize` calls it for
the starting training codes.  The CLI's scorer calls it once on the d unit
vectors: the codes are linear in ``x``, so those codes are the m-by-d
projection, and every score ``w . P x`` is ``(P'w) . x`` without an m-by-n
array.
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from . import hyperloss, sparse_coding
from .dataio import Dataset
from .measures import MeasureKind
from .sparse_coding import Dictionary

__all__ = [
    "TrainConfig",
    "TraceEntry",
    "Model",
    "NumericalDivergenceError",
    "ModelFormatError",
    "initialize",
    "fit",
    "encode",
    "save_model",
    "load_model",
]

MODEL_SCHEMA_VERSION = 2
ALPHA_INIT = 1e-3
WEIGHT_INIT_SCALE = 0.01


class NumericalDivergenceError(RuntimeError):
    """Training produced non-finite values; carries the iteration number."""

    def __init__(self, iteration: int):
        self.iteration = iteration
        super().__init__(f"numerical overflow at iteration {iteration}")

    def __reduce__(self):
        # The default rebuilds from ``args``, the message, not the iteration.
        return type(self), (self.iteration,)


class ModelFormatError(ValueError):
    """A serialized model stream is malformed or inconsistent."""


@dataclass(frozen=True)
class TrainConfig:
    """All knobs of a training run.

    ``dict_size=None`` resolves to ``min(2 * d, n)`` when fitting.  Every
    code and weight step uses the same step size ``eta``.
    """

    c1: float = 0.1
    c2: float = 0.01
    c3: float = 1.0
    eta: float = 0.01
    iters: int = 100
    dict_size: int | None = None
    norm_cap: float = 1.0
    measure: MeasureKind = MeasureKind.F1
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "measure", MeasureKind.parse(self.measure))
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type.startswith("int") and value is not None and type(value) is not int:
                raise ValueError(f"{f.name} must be an integer, got {value!r}")
            if f.type == "float" and (
                isinstance(value, bool) or not isinstance(value, (int, float))
                or not np.isfinite(value)
            ):
                raise ValueError(f"{f.name} must be a finite number, got {value!r}")
        if min(self.c1, self.c2, self.c3) < 0:
            raise ValueError("c1, c2, c3 must be nonnegative")
        if self.eta <= 0:
            raise ValueError("eta must be positive")
        if self.iters < 1:
            raise ValueError("iters must be >= 1")
        if self.dict_size is not None and self.dict_size < 1:
            raise ValueError("dict_size must be >= 1")
        if self.norm_cap <= 0:
            raise ValueError("norm_cap must be positive")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")

    def resolved_dict_size(self, n: int, d: int) -> int:
        return self.dict_size if self.dict_size is not None else min(2 * d, n)


@dataclass(frozen=True)
class TraceEntry:
    """Objective components at the end of one outer iteration."""

    reconstruction: float
    sparsity: float
    complexity: float
    surrogate: float
    objective: float


@dataclass
class Model:
    """Trained dictionary plus predictor weights and the training trace.

    ``ascent_converged`` holds, per iteration, whether the multiplier ascent
    met its KKT tolerance on the norm caps; it is kept in memory for
    inspection but is not part of the serialized schema.
    """

    dictionary: Dictionary
    weights: np.ndarray
    config: TrainConfig
    trace: tuple[TraceEntry, ...]
    ascent_converged: tuple[bool, ...] | None = field(default=None, repr=False)

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if self.weights.shape != (self.dictionary.m,):
            raise ValueError(
                f"weights length {self.weights.shape} does not match "
                f"dictionary size {self.dictionary.m}"
            )
        self.trace = tuple(self.trace)


def initialize(data: Dataset, config: TrainConfig) -> tuple[Dictionary, np.ndarray, np.ndarray]:
    """Starting point of a run: sampled dictionary, the :func:`encode` codes, small weights.

    Every draw comes from ``random.Random(config.seed)``, in this order:
    dictionary elements are data points sampled without replacement
    (``sample``; with replacement, ``choices``, only if the dictionary is
    larger than the dataset), each rescaled to squared norm ``norm_cap``; a
    sampled all-zero point is replaced by d ``gauss`` draws; the weights are
    ``uniform`` noise, never exactly zero-filled, so the first argmax has a
    generic score to break the all-tuples tie.
    """
    n, d = data.features.shape
    m = config.resolved_dict_size(n, d)
    rng = random.Random(config.seed)
    chosen = rng.choices(range(n), k=m) if m > n else rng.sample(range(n), m)
    columns = data.features[chosen].T.copy()
    norms = np.linalg.norm(columns, axis=0)
    for j in np.flatnonzero(norms == 0.0):
        columns[:, j] = [rng.gauss(0.0, 1.0) for _ in range(d)]
        norms[j] = np.linalg.norm(columns[:, j])
    columns *= np.sqrt(config.norm_cap) / norms
    dictionary = Dictionary(columns, config.norm_cap, np.full(m, ALPHA_INIT))
    weights = np.array([rng.uniform(-WEIGHT_INIT_SCALE, WEIGHT_INIT_SCALE) for _ in range(m)])
    return dictionary, encode(dictionary, data.features, config), weights


# Magnitudes beyond this square to IEEE overflow inside the Gram products.
_OVERFLOW_LIMIT = 1e140


def _ensure_finite(iteration: int, *arrays) -> None:
    # NaN fails ``<=`` as well, so min and max catch NaN, +-inf and overflow without a temporary.
    if any(arr.size and not (-_OVERFLOW_LIMIT <= arr.min() and arr.max() <= _OVERFLOW_LIMIT)
           for arr in arrays):
        raise NumericalDivergenceError(iteration)


def _codes_blown(codes: np.ndarray, X: np.ndarray) -> bool:
    # Exploding codes flatten the Gram onto one eigendirection, so the solve
    # can hit an exactly singular pivot long before IEEE overflow.
    return bool(max(-codes.min(), codes.max()) > 1e6 * (1.0 + np.abs(X).max()))


# Floor of the reweighting diagonal 1 / max(|s|, floor).
_REWEIGHT_FLOOR = 1e-8
# Columns per block of the code step and of the objective's sums.
_BLOCK_COLUMNS = 512


def _column_blocks(n, *buffers):
    """Slices of ``_BLOCK_COLUMNS`` columns of ``range(n)``, block-wide buffers cut to each."""
    for start in range(0, n, _BLOCK_COLUMNS):
        yield (slice(start, start + _BLOCK_COLUMNS), *(b[:, :n - start] for b in buffers))


def _objective_entry(X, elements, codes, weights, labels, config: TrainConfig,
                     residual, scratch):
    """Objective components and the bound's argmax; the sums run blockwise in the buffers given."""
    reconstruction = sparsity = 0.0
    for block, r, a in _column_blocks(X.shape[1], residual, scratch):
        r = np.subtract(X[:, block], np.matmul(elements, codes[:, block], out=r), out=r)
        reconstruction += float(np.sum(np.multiply(r, r, out=r)))
        sparsity += float(np.abs(codes[:, block], out=a).sum())
    complexity = 0.5 * float(weights @ weights)
    result = hyperloss.argmax_F_oracle(weights, codes, labels, config.measure)
    surrogate = result.max_value
    objective = (
        reconstruction
        + config.c1 * sparsity
        + config.c2 * complexity
        + config.c3 * surrogate
    )
    return TraceEntry(reconstruction, sparsity, complexity, surrogate, objective), result


def fit(data: Dataset, config: TrainConfig, observer=None) -> Model:
    """Run the full alternating loop for ``config.iters`` outer iterations.

    Each iteration takes one fixed-size (``eta``) gradient step on the codes
    and on the weights, then one multiplier ascent with its default Newton
    budget.  ``observer``, when given, is called as ``observer(stage,
    iteration)`` with stage ``dictionary`` once the iteration's dictionary is
    in place, then ``codes`` after the code step, ``weights`` after the
    weight step and the argmax that scores the iterate, and ``multipliers``
    after the ascent.  :func:`initialize` makes every random draw, so a
    fixed seed makes the run bitwise reproducible for a given numpy build
    and Python ``random`` algorithm.
    Single-class labels raise :class:`DegenerateClassError` for PRBEP and
    AUC from the first argmax, before any update.

    The code step and the objective's sums run over blocks of B =
    ``_BLOCK_COLUMNS`` columns in one workspace per run, so the codes are
    the only m-by-n array: an m-by-B reweighting (reused for the loss terms
    and ``|codes|``), an m-by-B gradient and a d-by-B residual.
    """
    observe = observer or (lambda stage, iteration: None)
    y = data.labels
    m = config.resolved_dict_size(data.n, data.d)
    config = replace(config, dict_size=m)
    dictionary, codes, weights = initialize(data, config)
    alphas = dictionary.multipliers
    X = data.features.T
    elements = sparse_coding.solve_dictionary(X, codes, alphas)
    # Each later dictionary is checked where the ascent returns it.
    _ensure_finite(0, elements)
    trace: list[TraceEntry] = []
    converged: list[bool] = []
    result = hyperloss.argmax_F_oracle(weights, codes, y, config.measure)
    work, grads, residual = (np.empty((k, min(_BLOCK_COLUMNS, data.n))) for k in (m, m, data.d))
    for iteration in range(config.iters):
        observe("dictionary", iteration)

        # Tie set from the previous iterate's codes and weights (found when
        # that iterate was scored), frozen for the rest of this iteration.
        coefficients = hyperloss.flip_coefficients(y, result.maximizers, config.c3)

        for block, u, g, r in _column_blocks(data.n, work, grads, residual):
            S = codes[:, block]
            sparse_coding.smoothing_weights(S, _REWEIGHT_FLOOR, u)
            # Loss terms np.outer(weights, coefficients), built in u once its reweighting is used.
            sparse_coding.code_gradient_batch(elements, X[:, block], S, u, config.c1,
                                              coefficients[block], weights[:, None], g, u, r)
            S -= np.multiply(config.eta, g, out=g)
        observe("codes", iteration)

        weights = weights - config.eta * hyperloss.loss_gradient_w(
            weights, codes, coefficients, config.c2
        )
        entry, result = _objective_entry(X, elements, codes, weights, y, config, residual, work)
        observe("weights", iteration)
        _ensure_finite(iteration, codes, weights)

        try:
            alphas, ascent_ok, elements = sparse_coding.dual_ascent_alphas(
                X, codes, config.norm_cap, alphas
            )
        except sparse_coding.SingularGramError:
            if _codes_blown(codes, X):
                raise NumericalDivergenceError(iteration) from None
            raise
        observe("multipliers", iteration)
        _ensure_finite(iteration, alphas, elements)

        trace.append(entry)
        converged.append(ascent_ok)
    final_dictionary = Dictionary(elements, config.norm_cap, alphas)
    return Model(final_dictionary, weights, config, tuple(trace), tuple(converged))


def encode(dictionary: Dictionary, features, config: TrainConfig) -> np.ndarray:
    """Codes for unlabeled points under a frozen dictionary.

    Returns the ridge codes ``(D'D + c1 I)^-1 D'x``, one column per row of
    ``features``: the minimizer of ``||x - D s||^2 + c1 ||s||^2``.  They are
    dense, not exactly sparse, as are the codes ``fit`` trains.  Fully
    deterministic.  The m-by-d projection is one least-squares solve of
    ``(D'D + c1 I) P = D'`` for every ``c1 >= 0``.  For ``c1`` above the
    rounding level of ``D'D`` (about ``eps m ||D||^2``) that is the ridge
    solve.  Below it, ``c1 = 0`` included, the solve's cutoff drops the
    directions ``D`` does not span, so the codes are their ``c1 -> 0`` limit,
    the minimum-norm least-squares codes ``pinv(D) x``.  The projection is
    solved for once and applied to the features, so the only m-by-n array is
    the result; the projection is the dictionary's size and outweighs it
    only when d > n, which is accepted rather than branched on.
    """
    X = np.asarray(features, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != dictionary.d:
        raise ValueError(
            f"dimension mismatch: features {X.shape} vs dictionary with d={dictionary.d}"
        )
    elements = dictionary.elements
    gram = elements.T @ elements + config.c1 * np.eye(dictionary.m)
    return np.linalg.lstsq(gram, elements.T, rcond=None)[0] @ X.T


def config_document(config: TrainConfig) -> dict:
    """TrainConfig as a JSON-ready dict, measure rendered as its string value."""
    doc = asdict(config)
    doc["measure"] = config.measure.value
    return doc


def save_model(model: Model) -> bytes:
    """Serialize a model to its versioned JSON document (UTF-8 bytes).

    Numbers round-trip exactly: floats are emitted in shortest repr form and
    save -> load -> save reproduces identical bytes.
    """
    dictionary = model.dictionary
    document = {
        "schema_version": MODEL_SCHEMA_VERSION,
        "d": int(dictionary.d),
        "config": config_document(model.config),
        "dictionary": [float(v) for v in dictionary.elements.ravel(order="C")],
        "weights": [float(v) for v in model.weights],
        "alphas": [float(v) for v in dictionary.multipliers],
        "trace": [asdict(entry) for entry in model.trace],
    }
    return (json.dumps(document, indent=2) + "\n").encode("utf-8")


_TRACE_KEYS = tuple(f.name for f in fields(TraceEntry))
# Config keys of earlier releases; model files that carry them still load.
_RETIRED_CONFIG_KEYS = frozenset(
    {"tie_policy", "encode_iters", "dual_rate", "eta_backoff", "eps", "dual_steps"}
)


def _finite_numbers(values, what: str) -> np.ndarray:
    """A JSON list of finite numbers as a float array, else ModelFormatError."""
    if not isinstance(values, list) or not all(
        isinstance(v, (int, float)) and not isinstance(v, bool) for v in values
    ):
        raise ModelFormatError(f"{what} must be a list of numbers")
    try:
        array = np.array(values, dtype=np.float64)
        if np.all(np.isfinite(array)):
            return array
    except OverflowError:  # an integer beyond the float range
        pass
    raise ModelFormatError(f"{what} must hold finite numbers only")


def load_model(blob: bytes) -> Model:
    """Parse and validate a model document produced by :func:`save_model`.

    Version 1 documents also load: their top-level ``m``, ``c`` and
    ``measure`` repeat the config block and are ignored.  Retired config
    keys (the tie-set policy, the test-time step count, the fixed ascent
    rate, the step-size backoff, the reweighting floor, the Newton step
    budget) are ignored in every version; any other unknown config key is an
    error.
    """
    try:
        text = blob.decode("utf-8") if isinstance(blob, bytes) else str(blob)
        document = json.loads(text)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ModelFormatError(f"not a valid model document: {exc}") from None
    if not isinstance(document, dict):
        raise ModelFormatError("model document must be a JSON object")
    version = document.get("schema_version")
    if type(version) is not int or version not in (1, MODEL_SCHEMA_VERSION):
        raise ModelFormatError(
            f"unsupported schema_version {version!r}; expected 1 or {MODEL_SCHEMA_VERSION}"
        )
    required = ("d", "config", "dictionary", "weights", "alphas", "trace")
    missing = [key for key in required if key not in document]
    if missing:
        raise ModelFormatError(f"model document missing fields: {missing}")
    block = document["config"]
    if isinstance(block, dict):
        block = {key: value for key, value in block.items() if key not in _RETIRED_CONFIG_KEYS}
    try:
        config = TrainConfig(**block)
    except (TypeError, ValueError) as exc:
        raise ModelFormatError(f"invalid config block: {exc}") from None
    d, m = document["d"], config.dict_size
    if type(d) is not int or d < 1:
        raise ModelFormatError(f"d must be a positive integer, got {d!r}")
    if m is None:
        raise ModelFormatError("config block must give dict_size")
    flat = _finite_numbers(document["dictionary"], "dictionary")
    if flat.shape != (d * m,):
        raise ModelFormatError(f"dictionary has {flat.size} numbers, expected {d * m}")
    weights = _finite_numbers(document["weights"], "weights")
    alphas = _finite_numbers(document["alphas"], "alphas")
    if not isinstance(document["trace"], list):
        raise ModelFormatError("trace must be a list")
    trace = []
    for i, entry in enumerate(document["trace"]):
        if not isinstance(entry, dict) or set(entry) != set(_TRACE_KEYS):
            raise ModelFormatError(f"trace entry {i} must have keys {_TRACE_KEYS}")
        values = _finite_numbers([entry[key] for key in _TRACE_KEYS], f"trace entry {i}")
        trace.append(TraceEntry(*values.tolist()))
    try:  # Model and Dictionary check the weights' and multipliers' lengths and signs
        return Model(Dictionary(flat.reshape(d, m), config.norm_cap, alphas),
                     weights, config, trace)
    except ValueError as exc:
        raise ModelFormatError(f"invalid model: {exc}") from None
