import hashlib
import io
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sparsetuple import dataio
from sparsetuple.dataio import (
    Dataset,
    DatasetFormatError,
    fill_rows,
    kfold_split,
    parse_csv,
    parse_svmlight,
    parse_svmlight_labels,
    serialize_svmlight,
    svmlight_blocks,
)

from conftest import make_gaussian_dataset


class TestParseSvmlight:
    def test_basic_sparse_lines(self):
        ds = parse_svmlight("+1 1:2.0 3:1.5\n-1 2:0.5")
        assert ds.n == 2 and ds.d == 3
        np.testing.assert_array_equal(ds.features, [[2.0, 0.0, 1.5], [0.0, 0.5, 0.0]])
        np.testing.assert_array_equal(ds.labels, [1, -1])

    def test_accepts_bytes_label_variants_and_crlf(self):
        ds = parse_svmlight(b"1 1:1\r\n-1 1:2\r\n+1 1:3\r\n")
        np.testing.assert_array_equal(ds.labels, [1, -1, 1])

    def test_comments_and_blank_lines(self):
        ds = parse_svmlight("# header comment\n+1 1:1.0 # trailing\n\n-1 1:2.0\n")
        assert ds.n == 2

    def test_empty_input(self):
        with pytest.raises(DatasetFormatError, match="empty dataset"):
            parse_svmlight("")

    def test_indices_not_increasing(self):
        with pytest.raises(DatasetFormatError, match="not strictly increasing"):
            parse_svmlight("+1 2:1 1:1")

    def test_duplicate_index_rejected(self):
        with pytest.raises(DatasetFormatError, match="not strictly increasing"):
            parse_svmlight("+1 2:1 2:3")

    def test_bad_label_reports_line(self):
        with pytest.raises(DatasetFormatError, match="line 2.*not in"):
            parse_svmlight("+1 1:1\n2 1:1")

    def test_non_finite_value(self):
        with pytest.raises(DatasetFormatError, match="non-finite"):
            parse_svmlight("+1 1:inf")

    def test_malformed_entry(self):
        with pytest.raises(DatasetFormatError, match="malformed"):
            parse_svmlight("+1 1:")
        with pytest.raises(DatasetFormatError, match="malformed"):
            parse_svmlight("+1 one:2")

    def test_zero_based_index_rejected(self):
        with pytest.raises(DatasetFormatError, match=">= 1"):
            parse_svmlight("+1 0:1.0")

    def test_index_beyond_64_bits_names_its_line(self):
        with pytest.raises(DatasetFormatError, match="line 2: feature index") as info:
            parse_svmlight("+1 1:1\n-1 99999999999999999999:1\n+1 3:1")
        assert info.value.line == 2

    def test_unallocatable_matrix_names_the_line_of_the_largest_index(self):
        # 2**60 columns of float64 exceed numpy's largest array size outright.
        with pytest.raises(DatasetFormatError, match="too large") as info:
            parse_svmlight(f"+1 {2**59}:1\n-1 1:1 {2**60}:1\n+1 2:1")
        assert info.value.line == 2

    def test_unallocatable_matrix_line_counts_comments_and_blank_lines(self):
        with pytest.raises(DatasetFormatError, match="too large") as info:
            parse_svmlight(f"# header\n+1 {2**59}:1\n\n-1 1:1\t{2**60}:1\n+1 2:1")
        assert info.value.line == 4

    @pytest.mark.parametrize("block_bytes", [3, dataio._BLOCK_BYTES])
    @pytest.mark.parametrize("text, message", [
        ("+1 2:1 1:1\n2 1:1", "line 1: feature indices not strictly increasing at '1:1'"),
        ("2 1:1\n+1 1:x", "line 1: label '2' not in {+1, -1}"),
    ])
    def test_first_error_in_file_order(self, monkeypatch, block_bytes, text, message):
        monkeypatch.setattr(dataio, "_BLOCK_BYTES", block_bytes)
        with pytest.raises(DatasetFormatError) as info:
            parse_svmlight(text)
        assert str(info.value) == message and info.value.line == 1

    # ' :' is a pair of the canonical form, so the first text is a canonical
    # block whose second row starts with a space; its label is ':1', as when tokenized.
    @pytest.mark.parametrize("text", ["+1 1:1\n :1 2:3\n", "+1 1:1\n\t:1 2:3\n"])
    def test_row_starting_with_a_space_reports_its_first_token(self, text):
        with pytest.raises(DatasetFormatError) as info:
            parse_svmlight(text)
        assert str(info.value) == "line 2: label ':1' not in {+1, -1}"


_REFERENCE_LABELS = {"+1": 1, "1": 1, "-1": -1}


def reference_parse_svmlight(text: str) -> Dataset:
    """The per-token svmlight parser that the block parser replaced."""
    rows: list[list[tuple[int, float]]] = []
    labels: list[int] = []
    max_index = 0
    for line_no, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if tokens[0] not in _REFERENCE_LABELS:
            raise DatasetFormatError(f"label {tokens[0]!r} not in {{+1, -1}}", line_no)
        labels.append(_REFERENCE_LABELS[tokens[0]])
        entries: list[tuple[int, float]] = []
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
            entries.append((index, value))
            previous = index
        max_index = max(max_index, previous)
        rows.append(entries)
    if not rows:
        raise DatasetFormatError("empty dataset")
    if max_index == 0:
        raise DatasetFormatError("no feature indices seen; d must be >= 1")
    features = np.zeros((len(rows), max_index), dtype=np.float64)
    for i, entries in enumerate(rows):
        for index, value in entries:
            features[i, index - 1] = value
    return Dataset(features, np.array(labels, dtype=np.int64))


_LABEL = st.sampled_from(["+1", "1", "-1"])
_COMMENT = st.sampled_from(["", " # note 1:2", "#"])
_VALUE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(["1", "-2.5", "+0", "-0.0", "1_0.5", "1e-320"]),
)
_GOOD_LINE = st.builds(
    lambda label, indices, form, values, comment: " ".join(
        [label] + [f"{form.format(i)}:{v}" for i, v in zip(sorted(indices), values)]
    ) + comment,
    _LABEL, st.sets(st.integers(1, 12), max_size=6),
    st.sampled_from(["{}", "+{}", "0{}", "0_{}"]), st.lists(_VALUE, min_size=6, max_size=6),
    _COMMENT,
)
_ANY_INDEX = st.one_of(
    st.integers(-1, 9).map(str), st.sampled_from(["-0", "_1", "1_", "1__2", "٣", "x", ""]),
)
_ANY_VALUE = st.one_of(_VALUE, st.sampled_from(["inf", "-Infinity", "nan", "1e999", "x", ""]))
_ANY_TOKEN = st.one_of(
    st.builds("{}:{}".format, _ANY_INDEX, _ANY_VALUE),
    st.sampled_from([":", "7", "abc", "1:2:3", "2::1"]),
)
_ANY_LINE = st.builds(
    lambda label, tokens, comment: " ".join([label] + tokens) + comment,
    st.sampled_from(["+1", "1", "-1", "+1", "-1", "2", "-1.0", "+-1"]),
    st.lists(_ANY_TOKEN, max_size=6), _COMMENT,
)
# Mostly well-formed lines, so that texts parse as well as fail.
_LINE = st.one_of(
    _GOOD_LINE, _GOOD_LINE, _GOOD_LINE, _GOOD_LINE, _ANY_LINE,
    st.sampled_from(["", "   ", "# only a comment"]),
)
_TEXT = st.builds(
    lambda lines, ending: ending.join(lines), st.lists(_LINE, max_size=8),
    st.sampled_from(["\n", "\r\n"]),
)


def _outcome(parse, text):
    try:
        ds = parse(text)
    except DatasetFormatError as exc:
        return type(exc), str(exc), exc.line
    return ds.features.tobytes(), ds.labels.tobytes(), ds.d


@settings(max_examples=400, deadline=None)
@given(_TEXT)
@example("+1 1:2:3 4\n-1 1:1")  # two colons then none: the pieces still pair up
@example("+1 3:1\n-1 1:1 2:1")  # indices restart at each row
@example("+1 1:1\n   \n-1 2:1")  # a whitespace-only line
@example("+1 1: 2:3")  # the separators pair up, but a value is empty
@example("+1 0_3:1\n-1 +3:1 4:2\n+1 03:1")  # index forms int() accepts
@example("+1 1:1 2:2 # note 1:2\n-1 1:3 2:4")  # no entry omitted, more colons than entries
@example("+1 1:1\x00")  # a NUL inside a value
@example("+1 1\x7f:1")  # a DEL inside an index
@example("+1 1:\u0663\n-1 2:1")  # an Arabic-Indic digit as a value
def test_block_parser_matches_per_token_reference(text):
    # Blocks of 8 bytes hold one line, or a few short ones.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dataio, "_BLOCK_BYTES", 8)
        assert _outcome(parse_svmlight, text) == _outcome(reference_parse_svmlight, text)


@settings(max_examples=200, deadline=None)
@given(st.lists(_LINE, max_size=8), st.sampled_from([8, dataio._BLOCK_BYTES]))
@example(["+1 1:1 # caf\u00e9", "-1\u00a01:2", "1 \u0663:1"], 8)  # non-ASCII text and digits
def test_bytes_str_and_crlf_parse_alike(lines, block_bytes):
    text = "\n".join(lines)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dataio, "_BLOCK_BYTES", block_bytes)
        forms = (text, text.encode(), text.replace("\n", "\r\n"),
                 text.replace("\n", "\r\n").encode())
        # and each encoded form as a buffered stream, as a file is read
        outcomes = {_outcome(parse_svmlight, form) for form in (
            *forms, *(io.BufferedReader(io.BytesIO(form.encode())) for form in forms[::2]))}
    assert len(outcomes) == 1


def _one_pass_outcome(text):
    """What the one-pass readers make of ``text``, in the terms of ``_outcome(parse_svmlight)``.

    The blocks' entries are written into a matrix as wide as their largest
    index, and each block's line numbers must be those of its rows.
    """
    try:
        blocks = list(svmlight_blocks(text))
    except DatasetFormatError as exc:
        with pytest.raises(DatasetFormatError) as info:
            parse_svmlight_labels(text)
        assert (str(info.value), info.value.line) == (str(exc), exc.line)
        return type(exc), str(exc), exc.line
    labels = np.array([label for block in blocks for label in block[0]], dtype=np.int64)
    counts, indices, values = (np.concatenate([block[k] for block in blocks]) for k in (1, 2, 3))
    assert [number for block in blocks for number in block[4]] == [
        number for number, line in enumerate(text.split("\n"), start=1)
        if line.split("#", 1)[0].split()]
    d = int(indices.max(initial=0))
    if not d:
        with pytest.raises(DatasetFormatError, match="no feature indices seen") as info:
            parse_svmlight_labels(text)
        return type(info.value), str(info.value), info.value.line
    np.testing.assert_array_equal(parse_svmlight_labels(text), labels)
    features = np.zeros((labels.size, d))
    fill_rows(features, counts, indices, values)
    return features.tobytes(), labels.tobytes(), d


@settings(max_examples=400, deadline=None)
@given(_TEXT, st.sampled_from([8, dataio._BLOCK_BYTES]))
@example("", 8)  # no line at all
@example("+1\n# note\n-1", 8)  # rows without an entry
@example("+1 1:1\n-1 1:x\n+1 0:1", 8)  # the first of two faults
@example("+1 1:1\n-1 2:1\xe9", 8)  # a non-ASCII character in a value
def test_one_pass_readers_match_parse_svmlight(text, block_bytes):
    # The same labels and entries, or the same first fault.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dataio, "_BLOCK_BYTES", block_bytes)
        assert _one_pass_outcome(text) == _outcome(parse_svmlight, text)


def test_one_pass_readers_read_a_stream_that_cannot_seek():
    class Pipe(io.BufferedReader):
        def seekable(self):
            return False

        def seek(self, *args):
            raise io.UnsupportedOperation("seek")

    text = b"+1 1:1 3:2\n# note\n-1 2:0.5\n"
    (labels, counts, indices, values, numbers), = svmlight_blocks(Pipe(io.BytesIO(text)))
    assert (labels, numbers) == ([1, -1], [1, 3])
    np.testing.assert_array_equal(counts, [2, 1])
    np.testing.assert_array_equal(indices, [1, 3, 2])
    np.testing.assert_array_equal(values, [1.0, 2.0, 0.5])
    np.testing.assert_array_equal(parse_svmlight_labels(Pipe(io.BytesIO(text))), [1, -1])


class _RewindChanges(io.BytesIO):
    """A stream whose text becomes ``changed`` when it is rewound to its start."""

    def __init__(self, text: bytes, changed: bytes):
        super().__init__(text)
        self.changed = changed

    def seek(self, offset, whence=io.SEEK_SET):
        if (offset, whence) == (0, io.SEEK_SET):
            super().seek(0)
            self.truncate()
            self.write(self.changed)
        return super().seek(offset, whence)


def test_input_that_grows_between_the_two_passes_is_reported_at_the_first_extra_entry():
    text = b"+1 1:1 2:2\n-1 1:3 2:4\n"
    with pytest.raises(DatasetFormatError) as info:
        parse_svmlight(_RewindChanges(text, text + b"+1 1:5 2:6\n"))
    assert info.value.line == 3
    assert "grew while it was read" in str(info.value)


def test_input_that_shrinks_between_the_two_passes_parses_what_the_second_pass_reads():
    # Fewer entries than colons leave a spare tail, as colons in comments do.
    text = b"+1 1:1 2:2\n-1 1:3 2:4\n"
    ds = parse_svmlight(_RewindChanges(text, text[:11]))
    np.testing.assert_array_equal(ds.features, [[1.0, 2.0]])
    np.testing.assert_array_equal(ds.labels, [1])


_GAP = st.sampled_from([" ", "  ", "\t", " \t ", "\t\t"])
_PAD = st.sampled_from(["", " ", "\t", "   "])


@settings(max_examples=200, deadline=None)
@given(st.lists(_LINE, max_size=8), st.sampled_from([8, dataio._BLOCK_BYTES]), st.data())
def test_respaced_text_parses_like_its_canonical_form(lines, block_bytes, data):
    # The canonical form keeps each line's tokens, single-spaced, and its line number.
    token_lines = [line.split("#", 1)[0].split() for line in lines]
    canonical = "\n".join(map(" ".join, token_lines))
    respaced = "".join(
        data.draw(_PAD) + "".join(token + data.draw(_GAP) for token in tokens[:-1])
        + "".join(tokens[-1:]) + data.draw(_PAD) + data.draw(_COMMENT)
        + data.draw(st.sampled_from(["\n", "\r\n"]))
        for tokens in token_lines
    )
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dataio, "_BLOCK_BYTES", block_bytes)
        assert _outcome(parse_svmlight, respaced) == _outcome(parse_svmlight, canonical)


# Lines of 1/512 of a block with their newline, padded with digits of the
# first value; each faulty line keeps that length.
_TAIL = b" 2:0.5 3:0.5 4:0.5"
_FULL_LINE = b"+1 1:0.".ljust(dataio._BLOCK_BYTES // 512 - 1 - len(_TAIL), b"5") + _TAIL
_FAULTY_LINES = {
    "label": (b"-2" + _FULL_LINE[2:], "label '-2' not in {+1, -1}"),
    "value": (_FULL_LINE[:-3] + b"0.x", "malformed feature value in '4:0.x'"),
    "utf-8": (_FULL_LINE[:-3] + b"0.\xff", "byte 0xff is not UTF-8 (invalid start byte)"),
}
# A block ends with the first line that brings it to _BLOCK_BYTES.
_BOUNDARY = -(-dataio._BLOCK_BYTES // (len(_FULL_LINE) + 1))


@pytest.mark.parametrize("later", sorted(_FAULTY_LINES))
@pytest.mark.parametrize("first", sorted(_FAULTY_LINES))
@pytest.mark.parametrize("line", [_BOUNDARY - 1, _BOUNDARY, _BOUNDARY + 1])
def test_first_fault_on_either_side_of_a_block_boundary(line, first, later):
    lines = [_FULL_LINE] * (2 * _BOUNDARY)
    lines[line - 1], message = _FAULTY_LINES[first]
    lines[line] = _FAULTY_LINES[later][0]  # a second fault on the next line
    with pytest.raises(DatasetFormatError) as info:
        parse_svmlight(b"\n".join(lines))
    assert str(info.value) == f"line {line}: {message}" and info.value.line == line


def _traced_parse(data):
    tracemalloc.start()
    try:
        dataset = parse_svmlight(data)
        return tracemalloc.get_traced_memory()[1], dataset
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("entries", [0, 10])
def test_parse_memory_grows_with_the_matrix_and_the_entries_not_the_text(entries):
    # Beyond the dense matrix, the parser keeps 16 bytes an entry (index and
    # value), under 16 a line (label and entry count) and 1 KB a block; the
    # text, its decoded copy and its list of lines would each cost more.
    line = b" ".join([b"-1"] + [b"%d:0.25" % j for j in range(1, entries + 1)]) + b"\n"
    (small_peak, small), (large_peak, large) = (
        _traced_parse(b"+1 1:0.5\n" + line * n) for n in (8000, 32000))
    lines = large.n - small.n
    # A block closes with the first line that brings it to _BLOCK_BYTES.
    lines_per_block = -(-dataio._BLOCK_BYTES // len(line))
    kept = 16 * entries * lines + 16 * lines + 1024 * -(-lines // lines_per_block)
    assert large_peak - small_peak <= large.features.nbytes - small.features.nbytes + kept


@pytest.mark.parametrize("entries, lines", [(10, 8000), (300, 200)])
def test_parse_of_lines_without_omitted_entries_keeps_two_bytes_an_entry(entries, lines):
    # Every line holds every column, so the buffer the values are written into
    # becomes the matrix.  Beyond it the parser keeps the column numbers, 1
    # byte an entry (2 above 255 columns), under 16 a line and 1 KB a block.
    line = b" ".join([b"-1"] + [b"%d:0.25" % j for j in range(1, entries + 1)]) + b"\n"
    (small_peak, small), (large_peak, large) = (
        _traced_parse(b"+1" + line[2:] + line * n) for n in (lines, 4 * lines))
    added = large.n - small.n
    lines_per_block = -(-dataio._BLOCK_BYTES // len(line))
    kept = 2 * entries * added + 16 * added + 1024 * -(-added // lines_per_block)
    assert large_peak - small_peak <= large.features.nbytes - small.features.nbytes + kept


# Finite values without -0.0, which an omitted entry could not reproduce bit for bit.
_CELL = st.one_of(st.just(0.0), st.floats(allow_nan=False, allow_infinity=False)).map(
    lambda value: value + 0.0)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 5).flatmap(
    lambda d: st.lists(st.lists(_CELL, min_size=d, max_size=d), min_size=1, max_size=8)),
    st.sampled_from([8, dataio._BLOCK_BYTES]))
def test_every_entry_and_omitted_zeros_parse_to_the_same_matrix(rows, block_bytes):
    # Written with every entry, the values fill the matrix in file order;
    # with zeros omitted, they are scattered into it.
    ds = Dataset(np.array(rows), np.resize([1, -1], len(rows)))
    every = "".join(
        " ".join(["+1" if label == 1 else "-1"]
                 + [f"{j}:{value!r}" for j, value in enumerate(row.tolist(), start=1)]) + "\n"
        for label, row in zip(ds.labels, ds.features)
    )
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dataio, "_BLOCK_BYTES", block_bytes)
        parsed = [parse_svmlight(text) for text in (every, serialize_svmlight(ds))]
    for again in parsed:
        assert again.features.shape == ds.features.shape
        assert again.features.tobytes() == ds.features.tobytes()
        np.testing.assert_array_equal(again.labels, ds.labels)


class TestRoundTrip:
    def test_random_datasets_round_trip(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            n = int(rng.integers(1, 12))
            d = int(rng.integers(1, 9))
            features = rng.normal(size=(n, d))
            features[rng.random(size=(n, d)) < 0.4] = 0.0
            labels = rng.choice([-1, 1], size=n)
            ds = Dataset(features, labels)
            again = parse_svmlight(serialize_svmlight(ds))
            np.testing.assert_array_equal(again.features, ds.features)
            np.testing.assert_array_equal(again.labels, ds.labels)

    def test_trailing_zero_column_preserved(self):
        ds = Dataset(np.array([[1.0, 0.0], [2.0, 0.0]]), np.array([1, -1]))
        again = parse_svmlight(serialize_svmlight(ds))
        assert again.d == 2
        np.testing.assert_array_equal(again.features, ds.features)

    def test_all_zero_row_preserved(self):
        ds = Dataset(np.array([[0.0, 0.0], [1.0, 2.0]]), np.array([1, -1]))
        again = parse_svmlight(serialize_svmlight(ds))
        np.testing.assert_array_equal(again.features, ds.features)

    def test_exact_text(self):
        # -0.0 and 0.0 leave no entry; the all-zero last column is pinned on line 1
        features = np.array([[-0.0, 1.5, 0.0], [0.0, 0.0, 0.0], [1e-05, -0.25, 0.0]])
        text = serialize_svmlight(Dataset(features, np.array([1, -1, -1])))
        assert text == "+1 2:1.5 3:0.0\n-1\n-1 1:1e-05 2:-0.25\n"

    def test_gate_text_is_pinned(self):
        # The acceptance gate and the benchmark's gate workload train on this text.
        text = serialize_svmlight(make_gaussian_dataset(seed=12345, n=200, d=10, separation=1.5))
        assert len(text) == 43_399
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "de21fcda2a01c2b5479843820337bf1fd7cb4ca74f6eb9a8168aa2f7e2eb832d")


class TestParseCsv:
    def test_basic(self):
        ds = parse_csv("label,f1,f2\n+1,1.0,0.0\n-1,0.0,1.0")
        assert ds.n == 2 and ds.d == 2
        np.testing.assert_array_equal(ds.labels, [1, -1])

    def test_label_column_anywhere(self):
        ds = parse_csv("f1,label\n0.5,-1\n")
        assert ds.d == 1
        np.testing.assert_array_equal(ds.labels, [-1])
        np.testing.assert_array_equal(ds.features, [[0.5]])

    def test_header_only(self):
        with pytest.raises(DatasetFormatError, match="empty dataset"):
            parse_csv("label,f1\n")

    def test_empty_input(self):
        with pytest.raises(DatasetFormatError, match="empty dataset"):
            parse_csv("")

    def test_bad_label(self):
        with pytest.raises(DatasetFormatError, match="not in"):
            parse_csv("label,f1\n2,1.0")

    def test_missing_label_column(self):
        with pytest.raises(DatasetFormatError, match="missing required column"):
            parse_csv("a,b\n1,2")

    def test_second_label_column_rejected(self):
        with pytest.raises(DatasetFormatError) as info:
            parse_csv("label,f1,label\n+1,1.0,-1\n-1,2.0,+1")
        assert info.value.line == 1
        assert str(info.value) == "line 1: more than one 'label' column"

    def test_non_numeric_cell(self):
        with pytest.raises(DatasetFormatError, match="non-numeric"):
            parse_csv("label,f1\n+1,abc")

    def test_no_feature_columns(self):
        with pytest.raises(DatasetFormatError, match="no feature columns"):
            parse_csv("label\n+1")

    @pytest.mark.parametrize("ending", [b"\r\n", b"\r"])
    def test_line_endings_give_the_lf_matrix(self, ending):
        lf = b"label,f1,f2\n+1,1.5,-2\n\n-1,0.25,3e-1\n"
        expected, ds = parse_csv(lf), parse_csv(lf.replace(b"\n", ending))
        np.testing.assert_array_equal(ds.features, expected.features)
        np.testing.assert_array_equal(ds.labels, expected.labels)

    @pytest.mark.parametrize("data, line, message", [
        # a fault on line 2 comes before the byte that is not UTF-8 on line 3
        (b"label,f1\n+1,abc\n-1,\xff\n", 2, "non-numeric feature cell 'abc' in column 'f1'"),
        (b"label,f1\n+1,1.0\n-1,\xff\n", 3, "byte 0xff is not UTF-8 (invalid start byte)"),
        # a quoted cell that spans lines 2 and 3 shifts no later line number
        (b'label,f1\n+1,"1.0\n"\n-1,abc\n', 4, "non-numeric feature cell 'abc' in column 'f1'"),
        (b'label,f1\r\n+1,"1.0\r\n"\r\n-1,2\r\n+1,1.0,2\r\n', 5, "expected 2 cells, found 3"),
        (b"label,f1\n+1,1.0\r-1,abc\r\n", 3, "non-numeric feature cell 'abc' in column 'f1'"),
        (b"label,a\n+1,inf\n", 2, "non-finite feature cell in column 'a'"),
    ])
    def test_first_fault_in_file_order(self, data, line, message):
        with pytest.raises(DatasetFormatError) as info:
            parse_csv(data)
        assert (info.value.line, str(info.value)) == (line, f"line {line}: {message}")


class TestDataset:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            Dataset(np.array([[np.nan]]), np.array([1]))

    @pytest.mark.parametrize("features", [np.ones(3), np.ones((0, 2))], ids=["1-D", "no rows"])
    def test_rejects_features_that_are_not_a_matrix_with_rows(self, features):
        with pytest.raises(ValueError, match="features must be a matrix with n >= 1 rows and "
                                             "d >= 1 columns"):
            Dataset(features, np.array([1, -1, 1]))

    def test_rejects_label_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            Dataset(np.ones((2, 2)), np.array([1]))


class TestKfoldSplit:
    def test_forced_singleton_folds(self):
        plan = kfold_split(10, 10, seed=0)
        sizes = np.bincount(plan, minlength=10)
        assert np.all(sizes == 1)

    def test_forced_sizes_10_3(self):
        plan = kfold_split(10, 3, seed=1)
        sizes = sorted(np.bincount(plan, minlength=3), reverse=True)
        assert sizes == [4, 3, 3]

    def test_stratified_balanced(self):
        labels = np.array([1] * 10 + [-1] * 10)
        plan = kfold_split(20, 10, seed=2, labels=labels)
        for fold in range(10):
            members = np.flatnonzero(plan == fold)
            assert members.size == 2
            assert np.sum(labels[members] == 1) == 1
            assert np.sum(labels[members] == -1) == 1

    def test_stratified_sizes_within_one(self):
        rng = np.random.default_rng(9)
        labels = rng.choice([-1, 1], size=23)
        plan = kfold_split(23, 4, seed=3, labels=labels)
        sizes = np.bincount(plan, minlength=4)
        assert sizes.max() - sizes.min() <= 1

    def test_partition_property(self):
        plan = kfold_split(37, 5, seed=4)
        seen = np.concatenate([np.flatnonzero(plan == f) for f in range(5)])
        assert sorted(seen.tolist()) == list(range(37))

    def test_deterministic(self):
        a = kfold_split(50, 7, seed=5)
        b = kfold_split(50, 7, seed=5)
        np.testing.assert_array_equal(a, b)
        c = kfold_split(50, 7, seed=6)
        assert not np.array_equal(a, c)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 60), st.integers(2, 9), st.integers(0, 2**32 - 1), st.booleans(),
           st.integers(0, 2**32 - 1))
    def test_matches_per_point_dealing(self, n, k, seed, stratified, label_seed):
        # The per-point loop the whole-array assignment replaced, pinned on
        # random shuffles: same folds for every point.
        k = min(k, n)
        labels = np.random.default_rng(label_seed).choice([-1, 1], size=n)
        rng = random.Random(seed)
        expected = np.empty(n, dtype=np.int64)
        if stratified:
            cursor = 0
            for cls in (1, -1):
                members = np.flatnonzero(labels == cls).tolist()
                rng.shuffle(members)
                for offset, index in enumerate(members):
                    expected[index] = (cursor + offset) % k
                cursor += len(members)
        else:
            order = list(range(n))
            rng.shuffle(order)
            for position, index in enumerate(order):
                expected[index] = position % k
        folds = kfold_split(n, k, seed, labels=labels if stratified else None)
        assert folds.dtype == np.int64
        np.testing.assert_array_equal(folds, expected)

    def test_pinned_stream(self):
        # random.Random(5).shuffle, dealt round-robin; a Python release that
        # changes shuffle changes every cv partition and fails here first.
        assert kfold_split(12, 3, 5).tolist() == [1, 1, 1, 2, 1, 0, 0, 0, 2, 2, 0, 2]
        labels = np.array([1] * 5 + [-1] * 7)
        assert kfold_split(12, 3, 5, labels=labels).tolist() == [
            0, 1, 0, 2, 1, 2, 1, 2, 0, 0, 1, 2]

    def test_seed_is_a_non_negative_integer(self):
        np.testing.assert_array_equal(kfold_split(10, 2, np.int64(3)), kfold_split(10, 2, 3))
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            kfold_split(10, 2, seed=-1)
        with pytest.raises(TypeError):
            kfold_split(10, 2, seed=3.0)

    def test_labels_of_another_length_rejected(self):
        with pytest.raises(ValueError, match="length mismatch: n=6 vs 5 labels"):
            kfold_split(6, 2, seed=0, labels=[1, -1, 1, -1, 1])

    def test_errors(self):
        with pytest.raises(ValueError, match="exceeds"):
            kfold_split(3, 4, seed=0)
        with pytest.raises(ValueError, match=">= 2"):
            kfold_split(10, 1, seed=0)
