import codecs
import csv
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bincp.core import NEGATIVE, POSITIVE, UNKNOWN, Dataset
from bincp.data import (
    DataFormatError,
    SyntheticSpec,
    _read_plain,
    demo_test_path,
    figure1_path,
    generate_synthetic,
    load_dataset,
    write_dataset,
)

from conftest import (
    FIGURE1_NEG,
    FIGURE1_POS,
    needs_dev_fd,
    piped,
    traced_peak,
    write_votes_file,
)


def write_csv(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestBundledFixtures:
    def test_figure_one_fixture_contents(self):
        data = load_dataset(figure1_path(), positive_class="B")
        assert len(data) == 21
        assert data.positive.sum() == 11
        assert (~data.positive).sum() == 10
        assert data.feature_dim is None
        assert data.probability
        assert sorted(data.scores[data.positive, 0].tolist()) == sorted(FIGURE1_POS)
        assert sorted(data.scores[~data.positive, 1].tolist()) == sorted(FIGURE1_NEG)

    def test_positive_class_mapping_is_symmetric(self):
        flipped = load_dataset(figure1_path(), positive_class="A")
        assert flipped.positive.sum() == 10
        assert (~flipped.positive).sum() == 11

    def test_demo_test_fixture_contents(self):
        data = load_dataset(demo_test_path(), positive_class="B")
        assert data.ids.tolist() == ["t1", "t2", "t3"]
        assert data.labels.tolist() == [POSITIVE, POSITIVE, NEGATIVE]


class TestLoadDataset:
    def test_feature_file(self, tmp_path):
        path = write_csv(tmp_path, "id,label,x1,x2\na,yes,1.0,2.5\nb,no,-1.0,0.0\n")
        data = load_dataset(path, positive_class="yes")
        assert data.feature_dim == 2
        assert data.features.tolist() == [[1.0, 2.5], [-1.0, 0.0]]
        assert data.labels.tolist() == [POSITIVE, NEGATIVE]
        assert data.scores is None

    def test_score_file(self, tmp_path):
        path = write_csv(tmp_path, "id,label,s_pos,s_neg\na,yes,0.9,0.1\n")
        data = load_dataset(path, positive_class="yes")
        assert data.scores.tolist() == [[0.9, 0.1]]
        assert data.probability
        assert data.feature_dim is None

    def test_combined_file(self, tmp_path):
        path = write_csv(
            tmp_path, "id,label,x1,s_pos,s_neg\na,yes,3.0,0.25,0.75\n"
        )
        data = load_dataset(path, positive_class="yes")
        assert data.features.tolist() == [[3.0]]
        assert data.scores.tolist() == [[0.25, 0.75]]

    def test_empty_label_means_unknown(self, tmp_path):
        path = write_csv(tmp_path, "id,label,x1\na,,1.0\nb,yes,2.0\n")
        data = load_dataset(path, positive_class="yes")
        assert data.labels.tolist() == [UNKNOWN, POSITIVE]
        assert not data.fully_labelled()

    def test_header_must_start_with_id_and_label(self, tmp_path):
        path = write_csv(tmp_path, "name,label,x1\na,yes,1.0\n")
        with pytest.raises(DataFormatError, match="header"):
            load_dataset(path, positive_class="yes")

    def test_feature_columns_must_be_numbered_in_order(self, tmp_path):
        path = write_csv(tmp_path, "id,label,x2,x1\na,yes,1.0,2.0\n")
        with pytest.raises(DataFormatError, match="x1..xm"):
            load_dataset(path, positive_class="yes")

    def test_data_columns_are_required(self, tmp_path):
        path = write_csv(tmp_path, "id,label\na,yes\n")
        with pytest.raises(DataFormatError, match="feature or score"):
            load_dataset(path, positive_class="yes")

    def test_row_width_errors_carry_the_line_number(self, tmp_path):
        path = write_csv(tmp_path, "id,label,x1\na,yes,1.0\nb,no\n")
        with pytest.raises(DataFormatError, match=":3:"):
            load_dataset(path, positive_class="yes")

    def test_bad_numbers_name_line_and_column(self, tmp_path):
        path = write_csv(tmp_path, "id,label,x1\na,yes,1.0\nb,no,abc\n")
        with pytest.raises(DataFormatError, match=r":3:.*x1"):
            load_dataset(path, positive_class="yes")

    def test_nan_features_rejected(self, tmp_path):
        path = write_csv(tmp_path, "id,label,x1\na,yes,nan\n")
        with pytest.raises(DataFormatError, match="NaN"):
            load_dataset(path, positive_class="yes")

    def test_score_rows_must_be_complementary_probabilities(self, tmp_path):
        path = write_csv(tmp_path, "id,label,s_pos,s_neg\na,yes,0.9,0.3\n")
        with pytest.raises(DataFormatError, match=":2:"):
            load_dataset(path, positive_class="yes")

    def test_duplicate_ids_rejected(self, tmp_path):
        path = write_csv(tmp_path, "id,label,x1\na,yes,1.0\na,no,2.0\n")
        with pytest.raises(DataFormatError) as caught:
            load_dataset(path, positive_class="yes")
        assert str(caught.value) == f"{path}:3: duplicate sample id 'a' (first on line 2)"

    @pytest.mark.parametrize(
        "rows, message",
        [
            (['"a\nb",yes,1.0', "c,no,abc"], "4: column 'x1' is not a number: 'abc'"),
            (['"a\nb",yes,1.0', "c,no"], "4: expected 3 columns, got 2"),
            (['"a\nb",yes,1.0', "c,no,inf"], "4: sample 'c' has non-finite features"),
            (['"a\nb",yes,1.0', "c,no,nan"], "4: column 'x1' is NaN"),
            (
                ['"a\nb",yes,1.0', "c,yes,1.0", '"d\ne",no,1.0', "c,no,2.0"],
                "7: duplicate sample id 'c' (first on line 4)",
            ),
        ],
        ids=["not-a-number", "column-count", "row-check", "nan", "duplicate-id"],
    )
    def test_lines_count_the_line_breaks_inside_quoted_fields(
        self, tmp_path, rows, message
    ):
        path = write_csv(tmp_path, "\n".join(["id,label,x1", *rows]) + "\n")
        with pytest.raises(DataFormatError) as caught:
            load_dataset(path, positive_class="yes")
        assert str(caught.value) == f"{path}:{message}"

    def test_empty_and_headerless_files_rejected(self, tmp_path):
        empty = write_csv(tmp_path, "", name="empty.csv")
        with pytest.raises(DataFormatError, match="empty"):
            load_dataset(empty, positive_class="yes")
        header_only = write_csv(tmp_path, "id,label,x1\n", name="header.csv")
        with pytest.raises(DataFormatError, match="no data rows"):
            load_dataset(header_only, positive_class="yes")

    def test_at_most_two_classes(self, tmp_path):
        path = write_csv(
            tmp_path, "id,label,x1\na,red,1.0\nb,green,2.0\nc,blue,3.0\n"
        )
        with pytest.raises(DataFormatError, match="two classes"):
            load_dataset(path, positive_class="red")

    def test_positive_class_must_appear_when_two_exist(self, tmp_path):
        path = write_csv(tmp_path, "id,label,x1\na,red,1.0\nb,green,2.0\n")
        with pytest.raises(DataFormatError, match="positive class"):
            load_dataset(path, positive_class="blue")

    @pytest.mark.parametrize(
        "row, message",
        [
            ("b,no,abc,0.5,0.5", "column 'x1' is not a number: 'abc'"),
            ("b,no,1.0,nan,0.5", "column 's_pos' is NaN"),
            ("b,no,nan,x,0.5", "column 'x1' is NaN"),
            ("b,no,abc,nan,0.5", "column 'x1' is not a number: 'abc'"),
            ("b,no,inf,0.5,0.5", "sample 'b' has non-finite features"),
            ("b,no,1.0,inf,-inf", "probability scores must be finite"),
            ("b,no,1.0,1.5,-0.5", "probability scores must be in [0, 1], got (1.5, -0.5)"),
            ("b,no,1.0,0.9,0.3", "probability scores must sum to 1, got 0.9 + 0.3 = 1.2"),
            (",no,1.0,0.5,0.5", "sample id must be nonempty"),
            ("b,no,1.0,0.5", "expected 5 columns, got 4"),
        ],
        ids=[
            "not-a-number", "nan", "nan-before-not-a-number", "not-a-number-before-nan",
            "infinite-feature", "infinite-score",
            "outside-unit-interval", "bad-sum", "empty-id", "column-count",
        ],
    )
    def test_rejected_rows_give_file_line_and_reason(self, tmp_path, row, message):
        path = write_csv(
            tmp_path,
            "id,label,x1,s_pos,s_neg\na,yes,1.0,0.9,0.1\n" + row + "\nc,no,2.0,0.5,0.5\n",
        )
        with pytest.raises(DataFormatError) as caught:
            load_dataset(path, positive_class="yes")
        assert str(caught.value) == f"{path}:3: {message}"

    @pytest.mark.parametrize(
        "rows, message",
        [
            (["a,yes,0.9,0.3", "b,no,abc,0.5"], "2: probability scores must sum to 1"),
            (["a,yes,inf,0.0", "b,no,0.5"], "2: probability scores must be finite"),
            (["a,yes,0.5,0.5", ",no,nan,0.5", "c,no,0.5"], "3: column 's_pos' is NaN"),
            (["a,yes,0.5,0.5", "a,no,0.5,0.5", "c,no,x,0.5"], "3: duplicate sample id 'a'"),
            (["a,yes,0.5,0.5", "b,no,nan,0.5", "c,no,x,0.5"], "3: column 's_pos' is NaN"),
        ],
        ids=[
            "sum-before-number", "finite-before-width", "nan-before-width", "repeat",
            "nan-before-number",
        ],
    )
    def test_the_earliest_bad_line_is_reported(self, tmp_path, rows, message):
        path = write_csv(tmp_path, "\n".join(["id,label,s_pos,s_neg", *rows]) + "\n")
        with pytest.raises(DataFormatError) as caught:
            load_dataset(path, positive_class="yes")
        assert str(caught.value).startswith(f"{path}:{message}")

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_dataset(tmp_path / "absent.csv", positive_class="yes")


# Row counts around and far past a block of 256 rows, so that a fault falls
# early, late and deep in a file among good rows.
CHUNK = 256
BOUNDARY_ROWS = pytest.mark.parametrize(
    "at", [CHUNK - 1, CHUNK, 3 * CHUNK + 5], ids=["last", "next", "later"]
)
HEADER = "id,label,x1,s_pos,s_neg"


def good_row(i):
    return f"r{i},{'yes' if i % 2 else 'no'},{i}.5,0.25,0.75"


class TestManyRows:
    """Faults and quoted fields among many good rows, each named by its line."""

    @BOUNDARY_ROWS
    @pytest.mark.parametrize(
        "row, message",
        [
            ("b,no,1.0,0.5", "expected 5 columns, got 4"),
            ("b,no,abc,0.5,0.5", "column 'x1' is not a number: 'abc'"),
            ("b,no,1.0,nan,0.5", "column 's_pos' is NaN"),
            ("b,no,1.0,0.9,0.3", "probability scores must sum to 1, got 0.9 + 0.3 = 1.2"),
            (None, "duplicate sample id"),
        ],
        ids=["column-count", "not-a-number", "nan", "bad-sum", "duplicate-id"],
    )
    def test_a_fault_names_its_line_wherever_it_falls(self, tmp_path, at, row, message):
        if row is None:
            # The first occurrence sits in the chunk before, or the same one.
            row = f"r{at - 1},no,1.0,0.5,0.5"
            message = f"duplicate sample id 'r{at - 1}' (first on line {at + 1})"
        # A later row with the wrong width, chunks on, must not hide the fault.
        rows = [good_row(i) for i in range(at)] + [row]
        rows += [good_row(i) for i in range(at + 1, at + 2 * CHUNK)] + ["z,no"]
        path = write_csv(tmp_path, "\n".join([HEADER, *rows]) + "\n")
        with pytest.raises(DataFormatError) as caught:
            load_dataset(path, positive_class="yes")
        assert str(caught.value) == f"{path}:{at + 2}: {message}"

    @BOUNDARY_ROWS
    def test_an_oversized_field_names_its_line(self, tmp_path, at):
        limit = csv.field_size_limit()
        rows = [good_row(i) for i in range(at)] + [f"{'b' * (limit + 1)},no,1.0,0.5,0.5"]
        path = write_csv(tmp_path, "\n".join([HEADER, *rows, good_row(at + 1)]) + "\n")
        with pytest.raises(DataFormatError) as caught:
            load_dataset(path, positive_class="yes")
        message = f"field larger than field limit ({limit})"
        assert str(caught.value) == f"{path}:{at + 2}: {message}"

    def test_a_bad_number_before_an_oversized_field_wins(self, tmp_path):
        limit = csv.field_size_limit()
        rows = [good_row(i) for i in range(CHUNK + 8)]
        rows[CHUNK + 2] = "b,no,abc,0.5,0.5"
        rows[CHUNK + 6] = f"{'b' * (limit + 1)},no,1.0,0.5,0.5"
        path = write_csv(tmp_path, "\n".join([HEADER, *rows]) + "\n")
        with pytest.raises(DataFormatError) as caught:
            load_dataset(path, positive_class="yes")
        message = "column 'x1' is not a number: 'abc'"
        assert str(caught.value) == f"{path}:{CHUNK + 4}: {message}"

    def test_an_oversized_header_names_line_one(self, tmp_path):
        path = write_csv(tmp_path, "i" * (csv.field_size_limit() + 1) + ",label,x1\n")
        with pytest.raises(DataFormatError, match=r"\.csv:1: field larger than"):
            load_dataset(path, positive_class="yes")

    @pytest.mark.parametrize("n", [1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK])
    def test_every_row_is_read(self, tmp_path, n):
        rows = [good_row(i) for i in range(n)]
        path = write_csv(tmp_path, "\n".join([HEADER, *rows]) + "\n")
        data = load_dataset(path, positive_class="yes")
        assert data.ids.tolist() == [f"r{i}" for i in range(n)]
        assert data.features[:, 0].tolist() == [i + 0.5 for i in range(n)]
        assert data.labels.tolist() == [POSITIVE if i % 2 else NEGATIVE for i in range(n)]
        assert data.scores.tolist() == [[0.25, 0.75]] * n

    def test_a_header_only_file_has_no_data_rows(self, tmp_path):
        path = write_csv(tmp_path, HEADER + "\n")
        with pytest.raises(DataFormatError, match="no data rows"):
            load_dataset(path, positive_class="yes")

    def test_quoted_ids_around_row_256_are_read(self, tmp_path):
        odd = ['"a,b"', '"say ""hi"""', '"two\nlines"', '"x\r\ny"']
        rows = [good_row(i) for i in range(2 * CHUNK)]
        for offset, quoted in enumerate(odd, start=CHUNK - 2):
            rows[offset] = quoted + rows[offset][rows[offset].index(","):]
        path = write_csv(tmp_path, "\n".join([HEADER, *rows]) + "\n")
        data = load_dataset(path, positive_class="yes")
        ids = data.ids.tolist()
        assert len(ids) == 2 * CHUNK
        assert ids[CHUNK - 3 : CHUNK + 3] == [
            f"r{CHUNK - 3}", "a,b", 'say "hi"', "two\nlines", "x\r\ny", f"r{CHUNK + 2}",
        ]
        assert data.features[:, 0].tolist() == [i + 0.5 for i in range(2 * CHUNK)]


# Files on which the csv module and numpy's C reader differ, each with what
# `load_dataset` gives: the ids and x1 values of rows labelled yes, no, yes,
# ..., or the error message after the path.
GRAMMAR_CASES = {
    "empty-line-inside": ("id,label,x1\na,yes,1\n\nb,no,2\n", ":3: expected 3 columns, got 0"),
    "empty-line-at-end": ("id,label,x1\na,yes,1\nb,no,2\n\n", ":4: expected 3 columns, got 0"),
    "empty-line-only": ("id,label,x1\n\n", ":2: expected 3 columns, got 0"),
    "empty-first-line": ("\nid,label,x1\na,yes,1\n", ": header must start with 'id,label', got []"),
    "no-final-newline": ("id,label,x1\na,yes,1\nb,no,2", (["a", "b"], [1.0, 2.0])),
    "crlf": ("id,label,x1\r\na,yes,1\r\nb,no,2\r\n", (["a", "b"], [1.0, 2.0])),
    "bare-cr": ("id,label,x1\ra,yes,1\rb,no,2\r", (["a", "b"], [1.0, 2.0])),
    "quoted-id": ('id,label,x1\n"a",yes,1\nb,no,2\n', (["a", "b"], [1.0, 2.0])),
    "quoted-line-break": ('id,label,x1\n"a\nb",yes,1\nc,no,2\n', (["a\nb", "c"], [1.0, 2.0])),
    "underscore": ("id,label,x1\na,yes,1_0\nb,no,2\n", (["a", "b"], [10.0, 2.0])),
    "arabic-indic-digit": ("id,label,x1\na,yes,١\nb,no,2\n", (["a", "b"], [1.0, 2.0])),
    "full-width-digit": ("id,label,x1\na,yes,１\nb,no,2\n", (["a", "b"], [1.0, 2.0])),
    "hash-in-id": ("id,label,x1\na#1,yes,1\nb,no,2\n", (["a#1", "b"], [1.0, 2.0])),
    "hash-after-number": ("id,label,x1\na,yes,1#\nb,no,2\n", ":2: column 'x1' is not a number: '1#'"),
    "spaces-and-tabs": ("id,label,x1\n a\t,yes, 1\t\nb,no,\t2 \n", ([" a\t", "b"], [1.0, 2.0])),
    "header-only-no-newline": ("id,label,x1", ": no data rows"),
    "one-row": ("id,label,x1\na,yes,1\n", (["a"], [1.0])),
    "one-row-no-newline": ("id,label,x1\na,yes,1", (["a"], [1.0])),
    **{
        f"U+{ord(char):04X}-{side}": (
            f"id,label,x1\na,yes,{field}\nb,no,2\n",
            f":2: column 'x1' is not a number: {field!r}",
        )
        for char in "\x1c\x1d\x1e\x1f"
        for side, field in (("before", char + "1"), ("after", "1" + char))
    },
}


def _csv_takes_nul():
    """Whether this Python's csv module reads a NUL (3.11 on) or rejects its line."""
    try:
        next(csv.reader(["\x00\n"]))
    except csv.Error:
        return False
    return True


def check_load(path, expected):
    """Load `path` and check it against an expected (ids, x1) or error suffix."""
    if isinstance(expected, str):
        with pytest.raises(DataFormatError) as caught:
            load_dataset(path, positive_class="yes")
        assert str(caught.value) == f"{path}{expected}"
        return
    ids, x1 = expected
    data = load_dataset(path, positive_class="yes")
    assert data.ids.tolist() == ids
    assert data.labels.tolist() == [(POSITIVE, NEGATIVE)[i % 2] for i in range(len(ids))]
    assert data.features.tolist() == [[value] for value in x1]


class _ReaderCalled(Exception):
    pass


ID_TEXT = st.text(alphabet="ab#_-. \t\x0bé١", min_size=1, max_size=8)
# Besides the two names, prefixes and extensions of the positive one and
# names that are not ASCII, so a file may hold a third class.
LABELS = ["yes", "no", "", "ye", "yess", "yes ", "sí", "نعم"]
NUMBER = st.tuples(
    st.floats(min_value=-1e100, max_value=1e100),
    st.sampled_from([repr, "{:.3g}".format, "{:e}".format, "{:.17g}".format, " {!r}\t".format]),
).map(lambda drawn: drawn[1](drawn[0]))


@st.composite
def plain_files(draw):
    """(lines, final line end) of a file both readers read alike: to the same
    dataset, or to the same class-name error."""
    ids = draw(st.lists(ID_TEXT, min_size=1, max_size=10, unique=True))
    labels = draw(st.lists(st.sampled_from(LABELS), min_size=1, max_size=3, unique=True))
    n_features = draw(st.integers(0, 3))
    scored = n_features == 0 or draw(st.booleans())
    header = ["id", "label", *(f"x{i}" for i in range(1, n_features + 1))]
    header += ["s_pos", "s_neg"] if scored else []
    lines = [",".join(header)]
    for row_id in ids:
        fields = [row_id, draw(st.sampled_from(labels))]
        fields += draw(st.lists(NUMBER, min_size=n_features, max_size=n_features))
        if scored:
            s_pos = draw(st.floats(min_value=0.0, max_value=1.0))
            fields += [repr(s_pos), repr(1.0 - s_pos)]
        lines.append(",".join(fields))
    return lines, draw(st.sampled_from(["\n", ""]))


def same_bits(a, b):
    return (a is None and b is None) or (a.shape == b.shape and a.tobytes() == b.tobytes())


def load_or_error(path):
    """The dataset at `path`, or its `DataFormatError` message without the path."""
    try:
        return load_dataset(path, positive_class="yes")
    except DataFormatError as err:
        return str(err).removeprefix(str(path))


def check_both_readers_agree(directory, lines, end="\n"):
    """Load `lines` as written, with `csv.reader` refused, and with the first
    id quoted, which sends the same content to the csv module ("c1" reads
    back as c1), each also after a UTF-8 byte order mark; the four datasets
    must be equal to the bit, or the four errors the same."""
    first_id = lines[1].split(",")[0]
    quoted = [lines[0], f'"{first_id}"' + lines[1][len(first_id):], *lines[2:]]
    plain_path, quoted_path = Path(directory, "plain.csv"), Path(directory, "quoted.csv")
    datasets = []
    for bom in ("", "\ufeff"):
        plain_path.write_text(bom + "\n".join(lines) + end, encoding="utf-8")
        quoted_path.write_text(bom + "\n".join(quoted) + end, encoding="utf-8")
        with mock.patch("bincp.data.csv.reader", side_effect=_ReaderCalled):
            datasets.append(load_or_error(plain_path))
        datasets.append(load_or_error(quoted_path))
    fast, *others = datasets
    if isinstance(fast, str):
        assert others == [fast] * 3
        return
    for slow in others:
        assert fast.ids.tolist() == slow.ids.tolist()
        assert fast.labels.tolist() == slow.labels.tolist()
        assert fast.probability == slow.probability
        assert same_bits(fast.features, slow.features)
        assert same_bits(fast.scores, slow.scores)


class TestPlainFiles:
    """Plain files go to numpy's C reader, every other one to the csv module."""

    @pytest.mark.parametrize("text, expected", GRAMMAR_CASES.values(), ids=GRAMMAR_CASES)
    def test_each_grammar_difference_reads_as_the_csv_module_does(
        self, tmp_path, text, expected
    ):
        path = tmp_path / "data.csv"
        path.write_bytes(text.encode("utf-8"))
        check_load(path, expected)

    @pytest.mark.parametrize(
        "raw, line, reason",
        [
            (b"id,label,x1\na,yes,1\nb\xe9,no,2\n", 3,
             "0xe9 is not UTF-8 (invalid continuation byte)"),
            (b"id,label,x1\r\na,yes,1\r\nb\xe9,no,2\r\n", 3,
             "0xe9 is not UTF-8 (invalid continuation byte)"),
            (codecs.BOM_UTF8 + b"id,label,x1\ra,yes,1\rb,no,2\xe9", 3,
             "0xe9 is not UTF-8 (unexpected end of data)"),
            (b'id,label,x1\n"a\r\nb",yes,1\nc,no,2\xff\n', 4,
             "0xff is not UTF-8 (invalid start byte)"),
        ],
        ids=["lf", "crlf", "bom-cr", "quoted-line-break"],
    )
    def test_a_byte_that_is_not_utf8_names_its_line(self, tmp_path, raw, line, reason):
        path = tmp_path / "data.csv"
        path.write_bytes(raw)
        check_load(path, f":{line}: byte {reason}")

    def test_a_byte_order_mark_is_no_part_of_the_header(self, tmp_path):
        plain, crlf = "id,label,x1\na,yes,1\nb,no,2\n", 'id,label,x1\r\n"a",yes,1\r\nb,no,2\r\n'
        for text in (plain, crlf):
            check_load(write_csv(tmp_path, "\ufeff" + text), (["a", "b"], [1.0, 2.0]))
        # Lines count as if the mark were absent.
        bad = write_csv(tmp_path, "\ufeffid,label,x1\na,yes,1\nb,no,x\n")
        check_load(bad, ":3: column 'x1' is not a number: 'x'")

    @pytest.mark.parametrize(
        "text, read",
        [
            ("id,label,x1\na\x00b,yes,1\nc,no,2\n", (["a\x00b", "c"], [1.0, 2.0])),
            ("id,label,x1\na,yes,1\x00\nc,no,2\n", ":2: column 'x1' is not a number: '1\\x00'"),
            # A label is its whole field, a trailing NUL too.
            ("id,label,x1\na,no\x00,1\nb,yes,2\nc,no,3\n",
             ": more than two classes: ['no', 'no\\x00', 'yes']"),
        ],
        ids=["in-id", "after-number", "after-label"],
    )
    def test_a_nul_reads_as_the_csv_module_does(self, tmp_path, text, read):
        path = tmp_path / "data.csv"
        path.write_bytes(text.encode("utf-8"))
        check_load(path, read if _csv_takes_nul() else ":2: line contains NUL")

    def test_the_field_size_limit_is_read_at_call_time(self, tmp_path):
        old = csv.field_size_limit(8)
        try:
            # Eight characters in sixteen bytes are within the limit too.
            check_load(
                write_csv(tmp_path, "id,label,x1\naaaaaaaa,yes,1\n" + "é" * 8 + ",no,2\n"),
                (["aaaaaaaa", "é" * 8], [1.0, 2.0]),
            )
            check_load(
                write_csv(tmp_path, "id,label,x1\naaaaaaaaa,yes,1\n"),
                ":2: field larger than field limit (8)",
            )
        finally:
            csv.field_size_limit(old)

    def test_plain_files_never_reach_the_csv_module(self, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise _ReaderCalled

        monkeypatch.setattr("bincp.data.csv.reader", refuse)
        data = generate_synthetic(SyntheticSpec(n_per_class=30, dim=3, seed=5))
        write_dataset(data, tmp_path / "features.csv")
        back = load_dataset(tmp_path / "features.csv", positive_class="positive")
        assert back.ids.tolist() == data.ids.tolist()
        assert same_bits(back.features, data.features)
        # Vote fractions of a 100-tree forest, as the benchmark writes them.
        votes = range(0, 101, 7)
        rows = [
            f"c{i:06d},{('negative', 'positive')[i % 2]},{v / 100!r},{(100 - v) / 100!r}"
            for i, v in enumerate(votes)
        ]
        path = write_csv(tmp_path, "\n".join(["id,label,s_pos,s_neg", *rows]) + "\n")
        scored = load_dataset(path, positive_class="positive")
        assert scored.scores[:, 0].tolist() == [v / 100 for v in votes]
        quoted = write_csv(tmp_path, 'id,label,x1\n"a",yes,1\n', name="quoted.csv")
        with pytest.raises(_ReaderCalled):
            load_dataset(quoted, positive_class="yes")

    @pytest.mark.parametrize(
        "labels, read",
        [
            (["yes", "ye"], [POSITIVE, NEGATIVE]),
            (["yess", "yes"], [NEGATIVE, POSITIVE]),
            (["yes ", "", "yes"], [NEGATIVE, UNKNOWN, POSITIVE]),
            (["sí", "yes", "sí"], [NEGATIVE, POSITIVE, NEGATIVE]),
            (["yes", "no", "ye"], ": more than two classes: ['no', 'ye', 'yes']"),
            (["no", "yess", "no"], ": positive class 'yes' not among ['no', 'yess']"),
            (["نعم", "sí", "", "yes"], ": more than two classes: ['sí', 'yes', 'نعم']"),
            (["yes", "no", "ye", "yess", "ye"] * 200,
             ": more than two classes: ['no', 'ye', 'yes', 'yess']"),
        ],
        ids=["prefix", "extension", "trailing-space", "non-ascii", "third-class",
             "extension-only", "third-class-non-ascii", "fourth-class"],
    )
    def test_a_label_is_its_whole_field_on_both_paths(self, tmp_path, labels, read):
        lines = ["id,label,x1", *(f"r{i},{label},{i}" for i, label in enumerate(labels))]
        check_both_readers_agree(tmp_path, lines)
        outcome = load_or_error(write_csv(tmp_path, "\n".join(lines) + "\n"))
        if isinstance(read, str):
            assert outcome == read
        else:
            assert outcome.labels.tolist() == read

    def test_a_row_with_misplaced_commas_goes_to_the_csv_path(self, tmp_path):
        # The file holds as many commas as its header times its lines, but
        # line 2 has one too many and line 3 one too few.  The row guard
        # turns it away before the C reader sees it.
        raw = b"id,label,s_pos,s_neg\na,x,0.1,0.9,\nb,y,0.2\n"
        path = tmp_path / "data.csv"
        path.write_bytes(raw)
        with mock.patch("bincp.data.np.loadtxt", side_effect=AssertionError):
            assert _read_plain(raw, path) is None
        check_load(path, ":2: expected 4 columns, got 5")

    def test_a_file_whose_fixed_width_fields_outgrow_it_goes_to_the_csv_path(self, tmp_path):
        ids = ["a" * 5000, *(f"r{i}" for i in range(999))]
        path = write_csv(tmp_path, "id,label,x1\n" + "".join(f"{i},yes,1\n" for i in ids))
        with mock.patch("bincp.data.csv.reader", side_effect=_ReaderCalled):
            with pytest.raises(_ReaderCalled):
                load_dataset(path, positive_class="yes")
        assert load_dataset(path, positive_class="yes").ids.tolist() == ids

    @given(plain_files())
    @settings(max_examples=40, deadline=None)
    def test_both_readers_give_the_same_dataset(self, file):
        with tempfile.TemporaryDirectory() as tmp:
            check_both_readers_agree(tmp, *file)

    @pytest.mark.parametrize("n", [CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK])
    def test_both_readers_agree_at_255_to_768_rows(self, tmp_path, n):
        check_both_readers_agree(tmp_path, [HEADER, *(good_row(i) for i in range(n))])


class TestLoadMemory:
    """One load's `tracemalloc` peak, as a multiple of the file's bytes.

    On a 40,000-row vote-fraction file (1.31 MB; Python 3.11, numpy 2.4) the
    plain path peaks at 5.7 times the file and the csv path, on the CRLF
    copy, at 9.7 times.  A plain path that split the text into a list of
    lines and read ids and labels as object fields peaked at 9.1 times, and
    a csv path reading through `io.StringIO` at 13.7 times.
    """

    @pytest.mark.parametrize("line_end, bound", [("\n", 7.5), ("\r\n", 12.0)],
                             ids=["plain", "crlf"])
    def test_one_load_peaks_below_a_multiple_of_the_file(self, tmp_path, line_end, bound):
        path = write_votes_file(tmp_path / "votes.csv", 40_000, seed=0, line_end=line_end)
        load_dataset(path, positive_class="positive")  # first-call imports are not the load's
        peak = traced_peak(lambda: load_dataset(path, positive_class="positive"))
        assert peak <= bound * path.stat().st_size


@needs_dev_fd
class TestPipedInput:
    """An input that can be read only once, as a pipe or `<(zcat f.csv.gz)`."""

    @pytest.mark.parametrize(
        "edit",
        [
            lambda text: text,
            lambda text: text.replace("\n", "\r\n"),
            lambda text: text.replace("\nn01,", '\n"n01",', 1),
            lambda text: "\ufeff" + text,
        ],
        ids=["plain", "crlf", "quoted", "bom"],
    )
    def test_a_piped_file_reads_as_the_same_file_on_disk(self, tmp_path, edit):
        on_disk = tmp_path / "data.csv"
        write_dataset(generate_synthetic(SyntheticSpec(n_per_class=30, dim=3, seed=5)), on_disk)
        content = edit(on_disk.read_text(encoding="utf-8")).encode("utf-8")
        assert len(content) < 60_000
        on_disk.write_bytes(content)
        expected = load_dataset(on_disk, positive_class="positive")
        with piped(content) as path:
            data = load_dataset(path, positive_class="positive")
        assert data.ids.tolist() == expected.ids.tolist()
        assert data.labels.tolist() == expected.labels.tolist()
        assert same_bits(data.features, expected.features)

    @pytest.mark.parametrize(
        "raw, message",
        [
            (b"id,label,x1\na,yes,1\na,no,2\n", ":3: duplicate sample id 'a' (first on line 2)"),
            (b"id,label,x1\na,yes,1\nb,no,x\n", ":3: column 'x1' is not a number: 'x'"),
            (b"id,label,x1\na,yes,1\nb,no\n", ":3: expected 3 columns, got 2"),
            (b"id,label,x1\r\na,yes,1\r\nb,no,x\r\n", ":3: column 'x1' is not a number: 'x'"),
            (b"id,label,x1\na,yes,1\nb\xe9,no,2\n",
             ":3: byte 0xe9 is not UTF-8 (invalid continuation byte)"),
        ],
        ids=["duplicate-id", "not-a-number", "short-row", "crlf", "not-utf8"],
    )
    def test_a_fault_in_a_piped_file_names_its_line(self, raw, message):
        with piped(raw) as path:
            with pytest.raises(DataFormatError) as caught:
                load_dataset(path, positive_class="yes")
        assert str(caught.value) == f"{path}{message}"


class TestWriteDataset:
    def test_feature_round_trip_is_exact(self, tmp_path):
        spec = SyntheticSpec(n_per_class=7, dim=3, separation=1.5, noise=0.8, seed=4)
        data = generate_synthetic(spec)
        path = tmp_path / "out.csv"
        write_dataset(data, path)
        back = load_dataset(path, positive_class="positive")
        assert back.ids.tolist() == data.ids.tolist()
        assert back.labels.tolist() == data.labels.tolist()
        assert back.features.tolist() == data.features.tolist()

    def test_score_round_trip_is_exact(self, tmp_path):
        data = load_dataset(figure1_path(), positive_class="B")
        path = tmp_path / "scores.csv"
        write_dataset(data, path)
        back = load_dataset(path, positive_class="positive")
        assert back.scores.tolist() == data.scores.tolist()
        assert back.labels.tolist() == data.labels.tolist()

    def test_unknown_labels_round_trip_as_empty(self, tmp_path):
        data = Dataset.from_columns(["a", "b"], [POSITIVE, UNKNOWN], [(1.0,), (2.0,)])
        path = tmp_path / "mixed.csv"
        write_dataset(data, path)
        assert "b," in path.read_text(encoding="utf-8")
        back = load_dataset(path, positive_class="positive")
        assert back.labels.tolist() == [POSITIVE, UNKNOWN]

    def test_partially_scored_dataset_is_rejected(self, tmp_path):
        # A score column covers every row, so scores for some rows make no
        # dataset, and nothing is written.
        with pytest.raises(ValueError, match=r"\(2, 2\)"):
            write_dataset(
                Dataset.from_columns(["a", "b"], [1, 1], [(1.0,), (2.0,)], [(0.5, 0.5)], True),
                tmp_path / "bad.csv",
            )
        assert not (tmp_path / "bad.csv").exists()

    @pytest.mark.parametrize("odd", ["cr\rid", "x\r\ny", "a,b", 'say "hi"', "two\nlines"])
    def test_ids_that_need_quotes_round_trip(self, tmp_path, odd):
        ids = ["a", odd, "b"]
        data = Dataset.from_columns(ids, [POSITIVE] * 3, None, [(0.5, 0.5)] * 3, True)
        path = tmp_path / "quoted.csv"
        write_dataset(data, path)
        assert load_dataset(path, positive_class="positive").ids.tolist() == ids

    def test_floats_are_written_as_their_repr(self, tmp_path):
        values = [-0.0, 0.0, 0.1, 0.1, 1e-300, -2.5e17]
        scores = [(1.0, 0.0), (0.25, 0.75), (0.1, 0.9), (0.1, 0.9), (0.0, 1.0), (0.5, 0.5)]
        ids = list("abcdef")
        data = Dataset.from_columns(ids, [POSITIVE] * 6, [(v,) for v in values], scores, True)
        path = tmp_path / "floats.csv"
        write_dataset(data, path)
        rows = path.read_text(encoding="utf-8").splitlines()[1:]
        assert rows == [
            f"{i},positive,{v!r},{p!r},{n!r}" for i, v, (p, n) in zip(ids, values, scores)
        ]

    def test_output_uses_unix_newlines(self, tmp_path):
        data = Dataset.from_columns(["a"], [POSITIVE], [(1.0,)])
        path = tmp_path / "nl.csv"
        write_dataset(data, path)
        raw = path.read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")


class TestSyntheticGenerator:
    def test_same_spec_reproduces_the_dataset(self):
        spec = SyntheticSpec(n_per_class=20, dim=2, seed=9)
        first = generate_synthetic(spec)
        second = generate_synthetic(spec)
        assert first.features.tolist() == second.features.tolist()
        assert first.ids.tolist() == second.ids.tolist()

    def test_different_seeds_differ(self):
        a = generate_synthetic(SyntheticSpec(n_per_class=5, seed=1))
        b = generate_synthetic(SyntheticSpec(n_per_class=5, seed=2))
        assert a.features.tolist() != b.features.tolist()

    def test_layout_and_ids(self):
        data = generate_synthetic(SyntheticSpec(n_per_class=10, dim=3, seed=0))
        assert len(data) == 20
        assert data.feature_dim == 3
        assert (~data.positive).sum() == 10
        assert data.ids.tolist()[:2] == ["n01", "n02"]
        assert data.ids.tolist()[10:12] == ["p01", "p02"]
        assert data.fully_labelled()

    def test_separation_shifts_the_positive_mean(self):
        spec = SyntheticSpec(n_per_class=4000, dim=2, separation=3.0, noise=1.0, seed=3)
        data = generate_synthetic(spec)
        pos = data.features[data.positive]
        neg = data.features[~data.positive]
        gap = pos[:, 0].mean() - neg[:, 0].mean()
        assert abs(gap - 3.0) < 0.15
        assert abs(pos[:, 1].mean() - neg[:, 1].mean()) < 0.15

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SyntheticSpec(n_per_class=0)
        with pytest.raises(ValueError):
            SyntheticSpec(n_per_class=1, dim=0)
        with pytest.raises(ValueError):
            SyntheticSpec(n_per_class=1, separation=-1.0)
        with pytest.raises(ValueError):
            SyntheticSpec(n_per_class=1, noise=0.0)
