import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sparsetuple import dataio
from sparsetuple.dataio import (
    Dataset,
    DatasetFormatError,
    kfold_split,
    parse_csv,
    parse_svmlight,
    serialize_svmlight,
)


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
        outcomes = {_outcome(parse_svmlight, form) for form in (
            text, text.encode(), text.replace("\n", "\r\n"), text.replace("\n", "\r\n").encode()
        )}
    assert len(outcomes) == 1


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


class TestDataset:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            Dataset(np.array([[np.nan]]), np.array([1]))

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
        plan = kfold_split(20, 10, seed=2, stratified=True, labels=labels)
        for fold in range(10):
            members = np.flatnonzero(plan == fold)
            assert members.size == 2
            assert np.sum(labels[members] == 1) == 1
            assert np.sum(labels[members] == -1) == 1

    def test_stratified_sizes_within_one(self):
        rng = np.random.default_rng(9)
        labels = rng.choice([-1, 1], size=23)
        plan = kfold_split(23, 4, seed=3, stratified=True, labels=labels)
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
        # random permutations: same folds for every point.
        k = min(k, n)
        labels = np.random.default_rng(label_seed).choice([-1, 1], size=n)
        rng = np.random.default_rng(seed)
        expected = np.empty(n, dtype=np.int64)
        if stratified:
            cursor = 0
            for cls in (1, -1):
                members = np.flatnonzero(labels == cls)
                for offset, index in enumerate(rng.permutation(members)):
                    expected[index] = (cursor + offset) % k
                cursor += members.size
        else:
            for position, index in enumerate(rng.permutation(n)):
                expected[index] = position % k
        folds = kfold_split(n, k, seed, stratified=stratified, labels=labels)
        assert folds.dtype == np.int64
        np.testing.assert_array_equal(folds, expected)

    def test_errors(self):
        with pytest.raises(ValueError, match="exceeds"):
            kfold_split(3, 4, seed=0)
        with pytest.raises(ValueError, match=">= 2"):
            kfold_split(10, 1, seed=0)
        with pytest.raises(ValueError, match="requires labels"):
            kfold_split(10, 2, seed=0, stratified=True)
