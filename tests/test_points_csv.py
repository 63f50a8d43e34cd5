"""The CSV point reader: line breaks, blank lines, the byte-order mark, field
syntax and the exact error messages, checked against a line-by-line oracle."""

import io

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from invarcert.cli import main
from invarcert.geometry import PointCloud, load_points_csv, save_points_csv

BOM = b"\xef\xbb\xbf"


def oracle_load(path, data: bytes) -> PointCloud:
    """One line at a time through universal newlines, one float() per field:
    the reference the reader must agree with, bit for bit and message for
    message."""
    rows = []
    width = None
    lines = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8-sig")
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        fields = line.split(",")
        if width is None:
            width = len(fields)
        elif len(fields) != width:
            raise ValueError(f"{path}: ragged row at line {lineno}")
        try:
            rows.append([float(f) for f in fields])
        except ValueError as exc:
            raise ValueError(f"{path}: non-numeric field at line {lineno}") from exc
    if not rows:
        raise ValueError(f"{path}: no points")
    return PointCloud(np.array(rows))


def outcome(load, data: bytes):
    """("ok", shape, bytes of the values) or ("error", message)."""
    try:
        cloud = load("cloud.csv", data)
    except ValueError as exc:
        return ("error", str(exc))
    return ("ok", cloud.data.shape, cloud.data.tobytes())


def lines_with(newline: str, lines: list[str]) -> bytes:
    return newline.join(lines).encode("utf-8")


NEWLINES = ["\n", "\r\n", "\r"]


class TestMessages:
    @pytest.mark.parametrize("newline", NEWLINES)
    def test_ragged_row_counts_blank_lines(self, newline):
        data = lines_with(newline, ["1,2", "", "   ", "3,4", "\t", "5", "6,7"])
        with pytest.raises(ValueError) as info:
            load_points_csv("cloud.csv", data)
        assert str(info.value) == "cloud.csv: ragged row at line 6"

    @pytest.mark.parametrize("newline", NEWLINES)
    def test_non_numeric_counts_blank_lines(self, newline):
        data = lines_with(newline, ["", "1,2", " \t ", "", "3,x", "4"])
        with pytest.raises(ValueError) as info:
            load_points_csv("cloud.csv", data)
        assert str(info.value) == "cloud.csv: non-numeric field at line 5"

    def test_first_bad_line_wins(self):
        # a non-numeric line before a ragged one reports the non-numeric one
        with pytest.raises(ValueError, match="non-numeric field at line 2$"):
            load_points_csv("cloud.csv", b"1,2\n3,y\n4\n")
        with pytest.raises(ValueError, match="ragged row at line 2$"):
            load_points_csv("cloud.csv", b"1,2\n4\n3,y\n")

    def test_mixed_line_breaks(self):
        # \r\n is one break, a lone \r is one, and \r\r\n is two
        with pytest.raises(ValueError, match="ragged row at line 5$"):
            load_points_csv("cloud.csv", b"1,2\r\n3,4\r5,6\r\r\n7\n")

    def test_no_points(self):
        for data in (b"", b"\n\r\n  \n", BOM, BOM + b"\r\r"):
            with pytest.raises(ValueError) as info:
                load_points_csv("cloud.csv", data)
            assert str(info.value) == "cloud.csv: no points"

    @pytest.mark.parametrize("field", ["nan(123)", "0x1p3", "1e", "", "1 2", "1__0", "--1"])
    def test_fields_float_rejects(self, field):
        with pytest.raises(ValueError) as info:
            load_points_csv("cloud.csv", f"1,2\n3,{field}\n".encode())
        assert str(info.value) == "cloud.csv: non-numeric field at line 2"

    @pytest.mark.parametrize("field", ["inf", "nan", "-iNF", "infinity", "1e400"])
    def test_non_finite_entries(self, field):
        with pytest.raises(ValueError) as info:
            load_points_csv("cloud.csv", f"1,2\n{field},4\n".encode())
        assert str(info.value) == "PointCloud: entries must be finite"


class TestAccepted:
    def test_byte_order_mark_keeps_line_numbers(self):
        with pytest.raises(ValueError, match="ragged row at line 3$"):
            load_points_csv("cloud.csv", BOM + b"1,2\n\n3\n")
        cloud = load_points_csv("cloud.csv", BOM + b"1,2\n3,4\n")
        assert np.array_equal(cloud.data, [[1.0, 2.0], [3.0, 4.0]])

    def test_missing_final_newline(self):
        for newline in NEWLINES:
            cloud = load_points_csv("cloud.csv", lines_with(newline, ["1,2", "3,4"]))
            assert np.array_equal(cloud.data, [[1.0, 2.0], [3.0, 4.0]])

    def test_field_syntax_follows_float(self):
        cloud = load_points_csv("cloud.csv", " 1_0 ,\t2 \n+.5, 5.\n\x851e1_0\x85,1e-400\n".encode())
        assert np.array_equal(cloud.data, [[10.0, 2.0], [0.5, 5.0], [1e10, 0.0]])

    def test_paragraph_separators_do_not_break_lines(self):
        # str.splitlines would break at \x85 and \u2028; universal newlines do not
        cloud = load_points_csv("cloud.csv", "1,2\x85,3\n".encode())
        assert cloud.data.shape == (1, 3)
        with pytest.raises(ValueError, match="non-numeric field at line 1$"):
            load_points_csv("cloud.csv", "1,2\u20283\n".encode())

    def test_saved_cloud_reads_back_bit_for_bit(self, tmp_path):
        rng = np.random.default_rng(31)
        data = rng.standard_normal((1024, 3)) * 10.0 ** rng.integers(-300, 300, (1024, 3))
        path = tmp_path / "cloud.csv"
        save_points_csv(path, PointCloud(data))
        again = load_points_csv(path)
        assert again.data.tobytes() == data.tobytes()
        assert load_points_csv(path, path.read_bytes()).data.tobytes() == data.tobytes()


def test_invalid_utf8_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"1,2\n3,\xff\n")
    good = tmp_path / "good.csv"
    good.write_bytes(b"1,2\n3,4\n")
    code = main(["project", "--group", "T", "--clean", str(bad), "--perturbed", str(good)])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: --clean: 'utf-8' codec can't decode byte 0xff in position 6: invalid start byte\n"
    )


# Fields: what save_points_csv writes, what float() reads beyond that, and
# what it refuses; lines: rows of 1 to 4 fields, blank and whitespace-only.
_FIELD = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(
        ["1_0", " 2 ", "+.5", "5.", "-0", "1e400", "1e-400", "inf", "-iNF", "nan", "\x851\x85",
         "nan(123)", "0x1p3", "1e", "", "x", "1 2", "\ufeff1", "\u20281"]
    ),
    st.text(alphabet="0123456789.e+-_ \t\x0c\x85", max_size=6),
)
_ROW = st.one_of(
    st.lists(_FIELD, min_size=2, max_size=3).map(",".join),
    st.lists(_FIELD, min_size=1, max_size=4).map(",".join),
    st.sampled_from(["", " ", "\t \x0c", "\x85", "\u2028"]),
)


@st.composite
def _documents(draw) -> bytes:
    rows = draw(st.lists(_ROW, max_size=8))
    breaks = draw(st.lists(st.sampled_from(NEWLINES), min_size=len(rows), max_size=len(rows)))
    text = "".join(row + brk for row, brk in zip(rows, breaks))
    if rows and draw(st.booleans()):
        text = text[: -len(breaks[-1])]  # no final line break
    data = text.encode("utf-8")
    return BOM + data if draw(st.booleans()) else data


@settings(max_examples=400, deadline=None)
@given(st.one_of(_documents(), st.text(alphabet="12.,e \r\n\x85\t", max_size=30).map(str.encode)))
@example(b"1,2\r\n3,4\r5,6\r\r\n7\n")
@example(b"1,2\n3,4\n")
@example("1_0, 2\x85\n+.5,5.".encode())
def test_reader_agrees_with_oracle(data):
    assert outcome(load_points_csv, data) == outcome(oracle_load, data)
