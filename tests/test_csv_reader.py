"""``read_csv_floats`` parses rows with numpy's C reader and gives what the
per-row ``float`` loop gave: the same header, the same array bits (NaN signs
included), on a bad value or a ragged row the same ValueError text, row and
column included, and no warning."""

import csv
import os
import tempfile
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pwlkit.learning import read_csv_floats

# Bad rows are put at 1, ROWS, ROWS + 1 and 2 * ROWS + 1 of 3 * ROWS data rows.
ROWS = 256


def per_row_reference(path, header="auto"):
    """The reader before numpy parsing, one ``float`` list per row."""
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        records = filter(None, reader)
        names = next(records, None) if header and header != "auto" else None
        for raw in records:
            try:
                row = list(map(float, raw))
            except ValueError:
                if header == "auto" and names is None and not rows:
                    names = raw
                    continue
                for col, v in enumerate(raw, 1):
                    try:
                        float(v)
                    except ValueError:
                        raise ValueError(f"row {reader.line_num}, column {col}: "
                                         f"not a number: {v!r}") from None
            if rows and len(row) != len(rows[0]):
                raise ValueError(f"row {reader.line_num} has {len(row)} values, "
                                 f"the first has {len(rows[0])}")
            rows.append(row)
    return names, np.array(rows)


def outcome(reader, path, header):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            names, data = reader(path, header)
        except (ValueError, csv.Error) as e:
            result = ("error", type(e).__name__, str(e))
        else:
            result = ("ok", names, data.shape, data.dtype.str, data.tobytes())
    assert not caught, [str(w.message) for w in caught]
    return result


NUMBERS = ["0", "1", "-2.5", "1e-300", "3.25e8", " 7 ", "nan", "-inf", "0.1", "-0.0",
           "12345678901234567890", "2.2250738585072014e-308", "-nan", "+NaN",
           "Infinity", "\x0c2\x0c", "5e-324", "1e999",
           "0.12345678901234567890123456789012345"]
# ``float`` reads these and numpy does not, so a file holding one takes the
# row loop.
ODD = ["1_000", "1_0.2_5", '"4.5"', '"-1e3"', "\u0663.5", "\u0661\u0660"]
BAD = ["abc", "", " ", "1.2.3", "0x10", '"x,1"', "--1", "\x0c", "1__0", '"1"x']
HEADERS = [None, "x,y", "x1,x2,x3", "1,2", "a", '"x\ny",z', "y,,", " ", '"1",2',
           "\u0661,2"]
# A line no data row may have: longer than csv's field limit, which numpy
# would read as ``inf``.
LONG = "9" * (csv.field_size_limit() + 10)


@st.composite
def csv_texts(draw):
    width = draw(st.integers(1, 4))
    count = draw(st.sampled_from([0, 1, 3, 40, 2 * ROWS + 40]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lines = [",".join(rng.choice(NUMBERS, width)) for _ in range(count)]
    edits = draw(st.lists(st.tuples(st.integers(0, max(count, 1)),
                                    st.sampled_from(["blank", "spaces", "bad", "odd",
                                                     "longer", "shorter", "long"]),
                                    st.sampled_from(BAD), st.sampled_from(ODD)),
                          max_size=3))
    for at, what, bad, odd in edits:
        at = min(at, len(lines))
        if what == "blank":
            lines.insert(at, "")
        elif what == "spaces":
            lines.insert(at, draw(st.sampled_from([" ", "\t", "\x0c", " \x0c "])))
        elif at < len(lines):
            cells = lines[at].split(",")
            if what in ("bad", "odd"):
                cells[int(rng.integers(len(cells)))] = bad if what == "bad" else odd
            elif what == "longer":
                cells.append("1")
            elif what == "long":
                cells[0] = LONG
            elif len(cells) > 1:
                cells.pop()
            lines[at] = ",".join(cells)
    header = draw(st.sampled_from(HEADERS))
    if header is not None:
        lines.insert(0, header)
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    end = draw(st.sampled_from(["", newline, newline * 2]))
    return newline.join(lines) + (end if lines else "")


@settings(derandomize=True, max_examples=300, deadline=None)
@given(text=csv_texts(), header=st.sampled_from(["auto", True, False]))
def test_reader_matches_per_row_loop(text, header):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "data.csv")
        with open(path, "w", newline="") as fh:
            fh.write(text)
        assert outcome(read_csv_floats, path, header) == \
            outcome(per_row_reference, path, header)


@pytest.mark.parametrize("row", [1, ROWS, ROWS + 1, 2 * ROWS + 1])
@pytest.mark.parametrize("defect", ["bad", "ragged"])
def test_errors_name_their_row_across_chunks(tmp_path, row, defect):
    lines = ["x,y"] + [f"{k},{k / 3!r}" for k in range(3 * ROWS)]
    lines[row] = f"{row},oops" if defect == "bad" else f"{row},1,2"
    path = tmp_path / "data.csv"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError) as err:
        read_csv_floats(path)
    want = (f"row {row + 1}, column 2: not a number: 'oops'" if defect == "bad"
            else f"row {row + 1} has 3 values, the first has 2")
    if defect == "ragged" and row == 1:
        want = "row 3 has 2 values, the first has 3"
    assert str(err.value) == want


@pytest.mark.parametrize("text", [
    "", "\n\n", "x,y\n", "x,y\r\n\r\n", "1_0,2\n3,4\n", "\u0663,2\n3,4\n",
    '"1",2\n3,4\n', "1,2\n \n3,4\n", "1\n\x0c\n2\n", "1,2\r3,4\r",
    "\x0c1,-nan\r\n2,nan\r\n", "x,y\n1,2\n" + LONG + ",3\n",
    "x\n" + "0." + "0" * (csv.field_size_limit() + 10) + "1\n"])
@pytest.mark.parametrize("header", ["auto", True, False])
def test_inputs_numpy_must_not_decide(tmp_path, text, header):
    path = tmp_path / "data.csv"
    path.write_text(text, newline="")
    assert outcome(read_csv_floats, path, header) == \
        outcome(per_row_reference, path, header)


def test_clean_file_is_parsed_by_numpy(tmp_path, monkeypatch):
    from pwlkit import formats

    def no_row_loop(path, header):
        raise AssertionError("clean file fell back to the row loop")

    monkeypatch.setattr(formats, "_read_csv_rows", no_row_loop)
    values = np.random.default_rng(0).standard_normal((1000, 3))
    path = tmp_path / "data.csv"
    path.write_text("a,b,c\n" + "".join(f"{a!r},{b!r},{c!r}\n"
                                         for a, b, c in values.tolist()))
    names, data = read_csv_floats(path)
    assert names == ["a", "b", "c"] and data.tobytes() == values.tobytes()


@pytest.mark.parametrize("bad_row", [None, 3, 400])
def test_pipe_is_read_once(tmp_path, bad_row):
    lines = ["x,y"] + [f"{k},{k / 7!r}" for k in range(500)]
    if bad_row is not None:
        lines[bad_row] = "1,oops"
    text = "\n".join(lines) + "\n"
    (tmp_path / "data.csv").write_text(text)
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)

    def feed():
        with open(fifo, "w") as fh:
            fh.write(text)

    result = []
    threads = [threading.Thread(target=feed, daemon=True),
               threading.Thread(target=lambda: result.append(
                   outcome(read_csv_floats, fifo, "auto")), daemon=True)]
    for t in threads:
        t.start()
    threads[1].join(timeout=30)
    assert result == [outcome(per_row_reference, tmp_path / "data.csv", "auto")]
