"""Dataset parsing, serialization, and deterministic k-fold splitting into fold numbers.

Three text formats are read: sparse svmlight-style lines
(``<label> <index>:<value> ...`` with 1-based strictly increasing indices
and ``#`` comments), CSV with a header containing a ``label`` column, and
the ``id<TAB>score<TAB>label`` lines that ``predict`` writes.  Features are
stored dense; the sparse format is an input convention, not a storage contract.

One set of rules holds for all three: labels are ``+1``, ``1`` or ``-1``,
and the first fault in file order is reported with its physical line, a
byte that is not UTF-8 included.  CSV and prediction lines end at LF, CRLF
or CR; svmlight lines end at LF, and a CR there is whitespace.

Each parser reads bytes, a str (encoded first) or a binary stream as a
stream: CSV and predictions a line at a time, svmlight in two passes, so an
svmlight stream must be seekable.

svmlight indices and values follow Python's ``int()`` and ``float()``
syntax.  Input is read and converted in blocks of whole lines of about
16 KB.  A canonical block, single-spaced ASCII ``label index:value ...``
lines with no tab, CR, ``#`` or blank line, is checked and split as a
whole; any other block is tokenized a line at a time and re-joined in
canonical form first.  Besides the dense matrix, parsing keeps each entry's
column number in 1 or 2 bytes, under 16 bytes a line and under 1 KB a
block, plus the working set of one block; when lines omit entries, their
values wait to be scattered, 8 bytes an entry more.
"""

from __future__ import annotations

import csv
import io
import math
import operator
import random
from dataclasses import dataclass
from itertools import chain, repeat

import numpy as np

from .measures import as_label_array

__all__ = [
    "Dataset",
    "DatasetFormatError",
    "parse_svmlight",
    "serialize_svmlight",
    "parse_csv",
    "parse_predictions",
    "kfold_split",
]

_LABEL_TOKENS = {"+1": 1, "1": 1, "-1": -1}


class DatasetFormatError(ValueError):
    """A dataset file could not be parsed; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


@dataclass(frozen=True)
class Dataset:
    """A tuple of n points: an n-by-d feature matrix plus +1/-1 labels."""

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        feats = np.asarray(self.features, dtype=np.float64)
        if feats.ndim != 2 or feats.shape[0] < 1 or feats.shape[1] < 1:
            raise ValueError("features must be a matrix with n >= 1 rows and d >= 1 columns")
        if not np.all(np.isfinite(feats)):
            raise ValueError("features must be finite")
        labels = as_label_array(self.labels)
        if labels.size != feats.shape[0]:
            raise ValueError(
                f"length mismatch: {feats.shape[0]} feature rows vs {labels.size} labels"
            )
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labels)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]


def _decode(data: bytes, line: int) -> str:
    """``data`` as text; bytes that are not UTF-8 are reported at their line."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DatasetFormatError(f"byte {data[exc.start]:#04x} is not UTF-8 ({exc.reason})",
                                 line + data.count(b"\n", 0, exc.start)) from None


def _parse_label(token: str, line_no: int) -> int:
    try:
        return _LABEL_TOKENS[token]
    except KeyError:
        raise DatasetFormatError(f"label {token!r} not in {{+1, -1}}", line_no) from None


def _stream(data):
    """``data`` as a binary stream: bytes and str (encoded as UTF-8) are wrapped."""
    if isinstance(data, str):
        data = data.encode("utf-8")
    return io.BytesIO(data) if isinstance(data, bytes) else data


def _text_lines(data):
    """``(line number, text)`` of each line, ended by LF, CRLF or CR, read and decoded alone."""
    lines = chain.from_iterable(chunk.splitlines(keepends=True) for chunk in _stream(data))
    for line_no, line in enumerate(lines, start=1):
        yield line_no, _decode(line, line_no).rstrip("\r\n")


# Bytes of whole lines read and converted at a time: one block bounds the working memory.
_BLOCK_BYTES = 1 << 14
# The bytes _pairs_up deletes: the printable ASCII bytes other than ' ', ':' and '#'.
_PLAIN = bytes(sorted(set(range(0x21, 0x7F)) - set(b":#")))


def _raise_first_error(numbers, text: str) -> None:
    """Raise the first error per-token rules find in canonical rows; row i is line numbers[i]."""
    for line_no, line in zip(numbers, text.split("\n")):
        tokens = line.split()
        _parse_label(tokens[0], line_no)
        previous = 0
        for token in tokens[1:]:
            index_str, sep, value_str = token.partition(":")
            if not sep or not index_str or not value_str:
                raise DatasetFormatError(f"malformed feature entry {token!r}", line_no)
            try:
                index = int(index_str)
            except ValueError:
                raise DatasetFormatError(f"malformed feature index in {token!r}", line_no) from None
            if index < 1:
                raise DatasetFormatError(f"feature index {index} must be >= 1", line_no)
            if index > np.iinfo(np.int64).max:
                raise DatasetFormatError(f"feature index {index} does not fit in 64 bits", line_no)
            if index <= previous:
                raise DatasetFormatError(
                    f"feature indices not strictly increasing at {token!r}", line_no
                )
            try:
                value = float(value_str)
            except ValueError:
                raise DatasetFormatError(f"malformed feature value in {token!r}", line_no) from None
            if not np.isfinite(value):
                raise DatasetFormatError(f"non-finite feature value in {token!r}", line_no)
            previous = index


def _pairs_up(block: bytes) -> bool:
    """Whether ``block`` holds only ``' :'`` pairs and newlines once ``_PLAIN`` is deleted."""
    return not block.translate(None, _PLAIN).replace(b" :", b"").strip(b"\n")


def _tokenize(text: str, first: int) -> tuple[str, list]:
    """``text`` as canonical rows, one per line that holds a token, and the line number of each."""
    rows, numbers = [], []
    for line_no, line in enumerate(text.split("\n"), start=first):
        tokens = line.split("#", 1)[0].split()
        if tokens:
            rows.append(" ".join(tokens))
            numbers.append(line_no)
    return "\n".join(rows), numbers


def _blocks(stream):
    """Each block of ``stream`` as canonical text, and the line number of each of its rows.

    Canonical text holds single-spaced ``label( index:value)*`` rows.  A
    canonical block passes as it is; any other block is tokenized.
    """
    first = 1
    while lines := stream.readlines(_BLOCK_BYTES):
        block = b"".join(lines)
        if _pairs_up(block) and b"\n\n" not in block and block[:1] != b"\n":
            yield block.rstrip(b"\n").decode("ascii"), range(first, first + len(lines))
        else:
            fault = None
            try:
                text = _decode(block, first)
            except DatasetFormatError as exc:  # a fault on an earlier line is reported first
                fault, text = exc, b"".join(lines[:exc.line - first]).decode("utf-8")
            text, numbers = _tokenize(text, first)
            if numbers:
                if not _pairs_up(text.encode("utf-8")):
                    # A token without a colon or with two, or a non-ASCII or control byte.
                    _raise_first_error(numbers, text)
                yield text, numbers
            if fault:
                raise fault
        first += len(lines)


def _convert_block(text: str):
    """Labels, entries per line, indices and values of canonical lines; None on a fault."""
    heads, _, rests = zip(*map(str.partition, text.split("\n"), repeat(" ")))
    labels = list(map(_LABEL_TOKENS.get, heads))
    if None in labels:
        return None
    counts = np.fromiter(map(str.count, rests, repeat(":")), np.int32, len(rests))
    total = int(counts.sum())
    # Each entry holds one colon, so its index and value are the pieces around it.
    pieces = " ".join(filter(None, rests)).replace(":", " ").split(" ") if total else []
    index_strs = pieces[0::2]
    try:
        index_of = {index_str: int(index_str) for index_str in set(index_strs)}
        indices = np.fromiter(map(index_of.__getitem__, index_strs), np.int64, total)
        values = np.fromiter(map(float, pieces[1::2]), np.float64, total)
    except (ValueError, OverflowError):
        return None
    # Each index must exceed the one before it in its row, or 0 at a row start.
    previous = np.concatenate(([0], indices[:-1]))
    previous[(np.cumsum(counts) - counts)[counts > 0]] = 0
    if not (np.all(indices > previous) and np.all(np.isfinite(values))):
        return None
    return labels, counts, indices, values


def _entry_line(counts: np.ndarray, at: int, numbers) -> int:
    """The line number of entry ``at`` of a block whose rows hold ``counts`` entries."""
    return numbers[int(np.searchsorted(np.cumsum(counts), at, side="right"))]


def parse_svmlight(data, min_width: int = 0) -> Dataset:
    """Parse svmlight text (UTF-8 bytes, a str, or a seekable binary stream) into a Dataset.

    The matrix has ``max(largest index, min_width)`` columns: a column that is
    zero on every line leaves no entry.  A first pass counts the colons in
    64 KB reads, and a second writes entry values, in file order, into one
    buffer of that size (an entry holds one colon), which is the matrix when
    no line omits an entry; otherwise they are scattered into a zero matrix
    by the column numbers each block keeps.  An entry beyond the count, in a
    file that grew between the passes, is reported at its line.
    """
    stream = _stream(data)
    colons = sum(chunk.count(b":") for chunk in iter(lambda: stream.read(1 << 16), b""))
    stream.seek(0)
    values = np.empty(colons, dtype=np.float64)
    labels, blocks = [], []
    total = top = top_line = 0  # entries so far; the largest index, and its first line
    for text, numbers in _blocks(stream):
        converted = _convert_block(text)
        if converted is None:
            _raise_first_error(numbers, text)
        block_labels, counts, indices, block_values = converted
        if total + block_values.size > colons:
            raise DatasetFormatError("the file grew while it was read: more entries than the "
                                     "first pass counted",
                                     _entry_line(counts, colons - total, numbers))
        block_top = int(indices.max(initial=0))
        if block_top > top:
            top = block_top
            top_line = _entry_line(counts, int(np.argmax(indices)), numbers)
        values[total:total + block_values.size] = block_values
        total += block_values.size
        blocks.append((len(labels), counts, indices.astype(np.min_scalar_type(block_top))))
        labels += block_labels
    if not labels:
        raise DatasetFormatError("empty dataset")
    n, d = len(labels), max(top, min_width)
    if not d:
        raise DatasetFormatError("no feature indices seen; d must be >= 1")
    if total == n * d:
        # A line holds at most as many entries as its largest index, so every
        # line holds d of them: columns 1..d, as the indices strictly increase.
        features = values[:total].reshape(n, d)  # colons in comments leave a spare tail
    else:
        try:
            features = np.zeros((n, d), dtype=np.float64)
        except (ValueError, MemoryError):
            raise DatasetFormatError(f"feature index {top} needs an {n}-by-{d} matrix, "
                                     "too large to allocate", top_line) from None
        start = 0
        for row, counts, indices in blocks:
            rows = np.repeat(np.arange(row, row + counts.size), counts)
            features[rows, indices - 1] = values[start:start + indices.size]
            start += indices.size
    del blocks, values  # before Dataset's checks allocate
    return Dataset(features, np.array(labels, dtype=np.int64))


def serialize_svmlight(dataset: Dataset) -> str:
    """Render a Dataset back to svmlight text.

    Nonzero entries only, except that the feature dimension is pinned by an
    explicit ``d:0.0`` entry on the first line whenever column d is zero
    everywhere, so parse(serialize(ds)) reproduces the exact matrix shape.
    """
    lines = [" ".join(["+1" if label == 1 else "-1",
                       *(f"{j}:{value!r}" for j, value in enumerate(row, start=1) if value)])
             for label, row in zip(dataset.labels.tolist(), dataset.features.tolist())]
    if not dataset.features[:, -1].any():
        lines[0] += f" {dataset.d}:0.0"
    return "\n".join(lines) + "\n"


def parse_csv(data) -> Dataset:
    """Parse header-first CSV with a ``label`` column into a Dataset."""
    reader = csv.reader(text + "\n" for _, text in _text_lines(data))
    labels, rows = [], []
    try:
        header = next(reader, None)
        if header is None:
            raise DatasetFormatError("empty dataset")
        header = [name.strip() for name in header]
        if "label" not in header:
            raise DatasetFormatError("missing required column 'label'", 1)
        if header.count("label") > 1:
            raise DatasetFormatError("more than one 'label' column", 1)
        label_col = header.index("label")
        feature_cols = [i for i in range(len(header)) if i != label_col]
        if not feature_cols:
            raise DatasetFormatError("no feature columns besides 'label'", 1)
        for row in reader:
            line_no = reader.line_num
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != len(header):
                raise DatasetFormatError(f"expected {len(header)} cells, found {len(row)}", line_no)
            labels.append(_parse_label(row[label_col].strip(), line_no))
            values = []
            for col in feature_cols:
                cell = row[col].strip()
                try:
                    value = float(cell)
                except ValueError:
                    raise DatasetFormatError(
                        f"non-numeric feature cell {cell!r} in column {header[col]!r}", line_no
                    ) from None
                if not math.isfinite(value):
                    raise DatasetFormatError(
                        f"non-finite feature cell in column {header[col]!r}", line_no
                    )
                values.append(value)
            rows.append(values)
    except csv.Error as exc:  # a cell over the field size limit, or a NUL before Python 3.11
        raise DatasetFormatError(str(exc), reader.line_num) from None
    if not rows:
        raise DatasetFormatError("empty dataset")
    return Dataset(np.array(rows, dtype=np.float64), np.array(labels, dtype=np.int64))


def parse_predictions(data) -> tuple[np.ndarray, np.ndarray]:
    """Scores and labels of ``id<TAB>score<TAB>label`` lines, with ids 0, 1, ...; blanks skipped."""
    scores, labels = [], []
    for line_no, text in _text_lines(data):
        line = text.strip()
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise DatasetFormatError("prediction line must be id<TAB>score<TAB>label", line_no)
        if parts[0].strip() != str(len(scores)):
            raise DatasetFormatError(f"id {parts[0]!r} is not row {len(scores)}", line_no)
        try:
            score = float(parts[1])
        except ValueError:
            raise DatasetFormatError("malformed prediction line", line_no) from None
        if not math.isfinite(score):
            raise DatasetFormatError(f"non-finite score {parts[1]!r}", line_no)
        scores.append(score)
        labels.append(_parse_label(parts[2].strip(), line_no))
    if not scores:
        raise DatasetFormatError("empty predictions file")
    return np.array(scores, dtype=np.float64), np.array(labels, dtype=np.int64)


def kfold_split(n: int, k: int, seed: int, labels=None) -> np.ndarray:
    """Deterministic k-fold partition of n points: the fold number of each point.

    The points form one group, ``range(n)``, or with ``labels`` (stratified
    splitting) two: the +1 class, then the -1 class.  One
    ``random.Random(seed)`` shuffles each group's members in turn, and they
    are dealt round-robin with a fold cursor that carries on from group to
    group.  Fold sizes differ by at most one, and so, with ``labels``, do
    the per-class counts.  ``seed`` is a non-negative integer, a numpy
    integer included.  Identical (n, k, seed, labels) always produce an
    identical partition for a given Python ``random`` algorithm.  Fold f
    tests the points ``np.flatnonzero(folds == f)`` and trains on the rest.
    """
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if k > n:
        raise ValueError(f"k={k} exceeds the number of points n={n}")
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    groups = [np.arange(n)]
    if labels is not None:
        y = as_label_array(labels)
        if y.size != n:
            raise ValueError(f"length mismatch: n={n} vs {y.size} labels")
        groups = [np.flatnonzero(y == cls) for cls in (1, -1)]
    rng = random.Random(seed)
    folds = np.empty(n, dtype=np.int64)
    cursor = 0
    for group in groups:
        members = group.tolist()
        rng.shuffle(members)
        folds[members] = (cursor + np.arange(len(members))) % k
        cursor += len(members)
    return folds
