"""``read_csv_floats`` converts rows in chunks and gives what the per-row loop
gave: the same header, the same array bits, and on a bad value or a ragged
row the same ValueError text, row and column included."""

import csv
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pwlkit.learning import CSV_CHUNK_ROWS, read_csv_floats


def per_row_reference(path, header="auto"):
    """The reader before chunked conversion, one ``float`` list per row."""
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
    try:
        names, data = reader(path, header)
    except ValueError as e:
        return ("error", type(e).__name__, str(e))
    return ("ok", names, data.shape, data.dtype.str, data.tobytes())


NUMBERS = ["0", "1", "-2.5", "1e-300", "3.25e8", " 7 ", "nan", "-inf", "1_000",
           '"4.5"', "0.1", "-0.0", "12345678901234567890", "2.2250738585072014e-308"]
BAD = ["abc", "", " ", "1.2.3", "0x10", '"x,1"', "--1"]
HEADERS = [None, "x,y", "x1,x2,x3", "1,2", "a", '"x\ny",z', "y,,"]


@st.composite
def csv_texts(draw):
    width = draw(st.integers(1, 4))
    count = draw(st.sampled_from([0, 1, 3, CSV_CHUNK_ROWS - 1, CSV_CHUNK_ROWS,
                                  CSV_CHUNK_ROWS + 1, 2 * CSV_CHUNK_ROWS + 40]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lines = [",".join(rng.choice(NUMBERS, width)) for _ in range(count)]
    edits = draw(st.lists(st.tuples(st.integers(0, max(count, 1)),
                                    st.sampled_from(["blank", "bad", "longer", "shorter"]),
                                    st.sampled_from(BAD)), max_size=3))
    for at, what, bad in edits:
        at = min(at, len(lines))
        if what == "blank":
            lines.insert(at, "")
        elif at < len(lines):
            cells = lines[at].split(",")
            if what == "bad":
                cells[int(rng.integers(len(cells)))] = bad
            elif what == "longer":
                cells.append("1")
            elif len(cells) > 1:
                cells.pop()
            lines[at] = ",".join(cells)
    header = draw(st.sampled_from(HEADERS))
    if header is not None:
        lines.insert(0, header)
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    end = draw(st.sampled_from(["", newline, newline * 2]))
    return newline.join(lines) + (end if lines else "")


@settings(derandomize=True, max_examples=300, deadline=None)
@given(text=csv_texts(), header=st.sampled_from(["auto", True, False]))
def test_chunked_reader_matches_per_row_loop(text, header):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "data.csv")
        with open(path, "w", newline="") as fh:
            fh.write(text)
        assert outcome(read_csv_floats, path, header) == \
            outcome(per_row_reference, path, header)


@pytest.mark.parametrize("row", [1, CSV_CHUNK_ROWS, CSV_CHUNK_ROWS + 1,
                                 2 * CSV_CHUNK_ROWS + 1])
@pytest.mark.parametrize("defect", ["bad", "ragged"])
def test_errors_name_their_row_across_chunks(tmp_path, row, defect):
    lines = ["x,y"] + [f"{k},{k / 3!r}" for k in range(3 * CSV_CHUNK_ROWS)]
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
