"""Dataset parsing, serialization, and deterministic k-fold splitting into fold numbers.

Two text formats are understood: sparse svmlight-style lines
(``<label> <index>:<value> ...`` with 1-based strictly increasing indices
and ``#`` comments) and CSV with a header containing a ``label`` column.
Features are stored dense; the sparse format is an input convention, not a
storage contract.

svmlight indices and values follow Python's ``int()`` and ``float()``
syntax.  The first error in file order is reported, with its line.  Input
is read and converted in blocks of whole lines of about 16 KB.  A canonical
block, single-spaced ASCII ``label index:value ...`` lines with no tab, CR,
``#`` or blank line, is checked and split as a whole; any other block is
tokenized a line at a time and re-joined in canonical form first.  Besides
the dense matrix, parsing keeps 16 bytes an entry, under 16 a line and
under 1 KB a block, plus the working set of one block.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .measures import as_label_array

__all__ = [
    "Dataset",
    "DatasetFormatError",
    "parse_svmlight",
    "serialize_svmlight",
    "parse_csv",
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


def _decode(data, line: int = 1) -> str:
    """``data`` as text; bytes that are not UTF-8 are reported at their line."""
    try:
        return data.decode("utf-8") if isinstance(data, bytes) else str(data)
    except UnicodeDecodeError as exc:
        raise DatasetFormatError(f"byte {data[exc.start]:#04x} is not UTF-8 ({exc.reason})",
                                 line + data.count(b"\n", 0, exc.start)) from None


def _parse_label(token: str, line_no: int) -> int:
    try:
        return _LABEL_TOKENS[token]
    except KeyError:
        raise DatasetFormatError(f"label {token!r} not in {{+1, -1}}", line_no) from None


# Bytes of whole lines read and converted at a time: one block bounds the working memory.
_BLOCK_BYTES = 1 << 14
# A canonical block holds only ' :' pairs and newlines once the printable
# ASCII bytes other than ' ', ':' and '#' are deleted.  Tokenized text holds
# no other whitespace and no '#', so there every byte but ' ', ':' and
# newline is deleted.
_PLAIN = bytes(sorted(set(range(0x21, 0x7F)) - set(b":#")))
_NOT_SEPARATOR = bytes(sorted(set(range(256)) - set(b" :\n")))


def _raise_first_error(lines) -> None:
    """Raise the first error the per-token rules find in ``(line number, tokens)`` pairs."""
    for line_no, tokens in lines:
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


def _pairs_up(block: bytes, ignored: bytes) -> bool:
    """Whether ``block`` holds only ``' :'`` pairs and newlines once ``ignored`` is deleted."""
    return not block.translate(None, ignored).replace(b" :", b"").strip(b"\n")


def _tokenize(text: str, first: int) -> list:
    """``(line number, tokens)`` of each line of ``text`` that holds a token."""
    lines = []
    for line_no, line in enumerate(text.split("\n"), start=first):
        tokens = line.split("#", 1)[0].split()
        if tokens:
            lines.append((line_no, tokens))
    return lines


def _blocks(data):
    """Each block as canonical text: ``label( index:value)*`` lines, single-spaced.

    Yields the text, the number of its first line and, for a block that had
    to be tokenized, its ``(line number, tokens)`` pairs, else None.
    """
    stream = io.BytesIO(data.encode("utf-8") if isinstance(data, str) else data)
    first = 1
    while lines := stream.readlines(_BLOCK_BYTES):
        block = b"".join(lines)
        if _pairs_up(block, _PLAIN) and b"\n\n" not in block and block[:1] != b"\n":
            yield block.rstrip(b"\n").decode("ascii"), first, None
        else:
            fault = None
            try:
                text = _decode(block, first)
            except DatasetFormatError as exc:  # a fault on an earlier line is reported first
                fault, text = exc, b"".join(lines[:exc.line - first]).decode("utf-8")
            tokenized = _tokenize(text, first)
            if tokenized:
                text = "\n".join(" ".join(tokens) for _, tokens in tokenized)
                if not _pairs_up(text.encode("utf-8"), _NOT_SEPARATOR):
                    _raise_first_error(tokenized)  # a token without a colon, or with two
                yield text, first, tokenized
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


def parse_svmlight(data) -> Dataset:
    """Parse svmlight text (UTF-8 bytes, or a str, encoded first) into a dense Dataset."""
    labels, blocks = [], []
    top = top_line = 0  # the largest index, and the line it first appears on
    for text, first, tokenized in _blocks(data):
        converted = _convert_block(text)
        if converted is None:
            _raise_first_error(tokenized or _tokenize(text, first))
        block_labels, counts, indices, values = converted
        if indices.max(initial=0) > top:
            top, at = int(indices.max()), int(np.argmax(indices))
            row = int(np.searchsorted(np.cumsum(counts), at, side="right"))
            top_line = tokenized[row][0] if tokenized else first + row
        blocks.append((len(labels), counts, indices, values))
        labels += block_labels
    if not labels:
        raise DatasetFormatError("empty dataset")
    if not top:
        raise DatasetFormatError("no feature indices seen; d must be >= 1")
    try:
        features = np.zeros((len(labels), top), dtype=np.float64)
    except (ValueError, MemoryError):
        raise DatasetFormatError(f"feature index {top} needs an {len(labels)}-by-{top} matrix, "
                                 "too large to allocate", top_line) from None
    for row, counts, indices, values in blocks:
        features[np.repeat(np.arange(row, row + counts.size), counts), indices - 1] = values
    del blocks  # before Dataset's checks allocate
    return Dataset(features, np.array(labels, dtype=np.int64))


def serialize_svmlight(dataset: Dataset) -> str:
    """Render a Dataset back to svmlight text.

    Nonzero entries only, except that the feature dimension is pinned by an
    explicit ``d:0.0`` entry on the first line whenever column d is zero
    everywhere, so parse(serialize(ds)) reproduces the exact matrix shape.
    """
    lines = []
    entry_lists = []
    for i in range(dataset.n):
        row = dataset.features[i]
        nz = np.flatnonzero(row != 0.0)
        entry_lists.append([(int(j) + 1, float(row[j])) for j in nz])
    if not np.any(dataset.features[:, -1] != 0.0):
        entry_lists[0].append((dataset.d, 0.0))
    for i, entries in enumerate(entry_lists):
        label = "+1" if dataset.labels[i] == 1 else "-1"
        parts = [label] + [f"{index}:{value!r}" for index, value in entries]
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


def parse_csv(data) -> Dataset:
    """Parse header-first CSV with a ``label`` column into a Dataset."""
    reader = csv.reader(io.StringIO(_decode(data)))
    try:
        header = next(reader)
    except StopIteration:
        raise DatasetFormatError("empty dataset") from None
    header = [name.strip() for name in header]
    if "label" not in header:
        raise DatasetFormatError("missing required column 'label'", 1)
    if header.count("label") > 1:
        raise DatasetFormatError("more than one 'label' column", 1)
    label_col = header.index("label")
    feature_cols = [i for i in range(len(header)) if i != label_col]
    if not feature_cols:
        raise DatasetFormatError("no feature columns besides 'label'", 1)
    labels: list[int] = []
    rows: list[list[float]] = []
    for line_no, row in enumerate(reader, start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != len(header):
            raise DatasetFormatError(
                f"expected {len(header)} cells, found {len(row)}", line_no
            )
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
            if not np.isfinite(value):
                raise DatasetFormatError(
                    f"non-finite feature cell in column {header[col]!r}", line_no
                )
            values.append(value)
        rows.append(values)
    if not rows:
        raise DatasetFormatError("empty dataset")
    return Dataset(np.array(rows, dtype=np.float64), np.array(labels, dtype=np.int64))


def kfold_split(n: int, k: int, seed: int, stratified: bool = False, labels=None) -> np.ndarray:
    """Deterministic k-fold partition of n points: the fold number of each point.

    Plain mode deals a seeded shuffle round-robin, so fold sizes differ by
    at most one.  Stratified mode deals each class in turn with a continuing
    fold cursor, balancing both total fold sizes and per-class counts to
    within one.  Identical (n, k, seed, stratified, labels) always produce
    an identical partition.  Fold f tests the points
    ``np.flatnonzero(folds == f)`` and trains on the rest.
    """
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if k > n:
        raise ValueError(f"k={k} exceeds the number of points n={n}")
    rng = np.random.default_rng(seed)
    folds = np.empty(n, dtype=np.int64)
    if stratified:
        if labels is None:
            raise ValueError("stratified splitting requires labels")
        y = as_label_array(labels)
        if y.size != n:
            raise ValueError(f"length mismatch: n={n} vs {y.size} labels")
        cursor = 0
        for cls in (1, -1):
            members = np.flatnonzero(y == cls)
            folds[rng.permutation(members)] = (cursor + np.arange(members.size)) % k
            cursor += members.size
    else:
        folds[rng.permutation(n)] = np.arange(n) % k
    return folds
