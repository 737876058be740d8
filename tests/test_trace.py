import csv
import math

import numpy as np
import pytest

from stochfeas.diagnostics import aggregate_runs
from stochfeas.exceptions import UsageError
from stochfeas.trace import CSV_HEADER, ConvergenceTrace, read_trace_csv


def make_trace(rows=3, db=True):
    t = ConvergenceTrace()
    for i in range(rows):
        t.append(2 * i, 0.1 * i, 1.0 / 3.0 ** i, -7.0 * i / 3.0 if db else None,
                 1.0 + i / 7.0, 1.0 + i / 11.0)
    return t


class TestAppend:
    @pytest.mark.parametrize("iteration", [4, 3], ids=["repeated", "decreasing"])
    def test_non_increasing_iteration_rejected(self, iteration):
        t = make_trace()
        with pytest.raises(UsageError, match="must increase"):
            t.append(iteration, 1.0, 1.0, None, 1.0, 1.0)
        assert len(t) == 3

    @pytest.mark.parametrize("position", range(5))
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_value_rejected(self, position, value):
        cells = [1.0, 1.0, 0.0, 1.0, 1.0]
        cells[position] = value
        t = make_trace()
        with pytest.raises(UsageError, match="non-finite"):
            t.append(10, *cells)
        assert len(t) == 3


def write_rows(path, lines):
    path.write_text("".join(line + "\n" for line in lines))


class TestReadTraceCsv:
    @pytest.mark.parametrize("db", [True, False], ids=["with-db", "without-db"])
    def test_written_trace_read_back_exactly(self, tmp_path, db):
        t = make_trace(db=db)
        t.footer.update(stop_reason="max_iters", atol="1e-12", iterations_run="5")
        t.write_csv(tmp_path / "t.csv")
        back = read_trace_csv(tmp_path / "t.csv")
        assert back.footer == t.footer
        for column in ("iterations", "residuals", "db_column", "lambdas", "extrapolations"):
            read, written = getattr(back, column)(), getattr(t, column)()
            if written is None:
                assert read is None
            else:
                assert read.dtype == written.dtype and np.array_equal(read, written)
        # every column, elapsed_s included, and the footer are written back unchanged
        back.write_csv(tmp_path / "back.csv")
        assert (tmp_path / "back.csv").read_bytes() == (tmp_path / "t.csv").read_bytes()

    def test_foreign_header_rejected(self, tmp_path):
        write_rows(tmp_path / "t.csv", [",".join(CSV_HEADER + ("db_min", "db_max")),
                                        "0,0,1,,1,1,,"])
        with pytest.raises(UsageError, match="unexpected trace header"):
            read_trace_csv(tmp_path / "t.csv")

    @pytest.mark.parametrize("row", [
        "2,0,1,,1",
        "2,0,1,,1,1,7",
        "2,0,one,,1,1",
        "2.5,0,1,,1,1",
        "2,0,nan,,1,1",
        "0,0,1,,1,1",
    ], ids=["too-few-cells", "extra-cell", "non-numeric", "fractional-iter",
            "non-finite", "non-increasing"])
    def test_malformed_row_rejected_naming_its_line(self, tmp_path, row):
        write_rows(tmp_path / "t.csv", [",".join(CSV_HEADER), "0,0,1,,1,1", row,
                                        "# stop_reason=max_iters"])
        with pytest.raises(UsageError, match="line 3"):
            read_trace_csv(tmp_path / "t.csv")


def test_averaged_trace_without_db_writes_empty_db_cells(tmp_path):
    avg = aggregate_runs([make_trace(db=False), make_trace(db=False)])
    avg.write_csv(tmp_path / "avg.csv")
    with open(tmp_path / "avg.csv", newline="") as fh:
        header, *rows = list(csv.reader(fh))
    assert header == list(CSV_HEADER) + ["db_min", "db_max"]
    assert len(rows) == 3
    for row in rows:
        assert [row[3], row[6], row[7]] == ["", "", ""]
        assert all(row[i] for i in (0, 1, 2, 4, 5))


def csv_module_write(trace, path):
    """The csv-module writer, kept as the oracle of ``write_csv``'s bytes."""
    iters, *floats = trace.columns.values()
    cells = [[int(i) for i in iters]]
    cells += [["" if c is None else format(float(c), ".17g") for c in col] for col in floats]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(trace.columns)
        writer.writerows(zip(*cells))
        for key in sorted(trace.footer):
            fh.write(f"# {key}={trace.footer[key]}\n")


@pytest.mark.parametrize("kind", ["with-db", "without-db", "averaged", "mixed-db", "empty"])
def test_write_csv_bytes_match_the_csv_module(tmp_path, kind):
    if kind == "averaged":
        trace = aggregate_runs([make_trace(50), make_trace(50)])
    elif kind == "empty":
        trace = ConvergenceTrace()
    else:
        trace = make_trace(50, db=kind != "without-db")
        if kind == "mixed-db":
            trace.columns["norm_err_db"][7] = None
    trace.footer.update(stop_reason="max_iters", atol=1e-10, iterations_run=99)
    trace.write_csv(tmp_path / "fast.csv")
    csv_module_write(trace, tmp_path / "oracle.csv")
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()


def straight_transcription(trace) -> str:
    """Every cell through "%d" or "%.17g", one row at a time."""
    lines = [",".join(trace.columns)]
    for it, *values in zip(*trace.columns.values()):
        lines.append(",".join(["%d" % it] + ["" if v is None else "%.17g" % v for v in values]))
    footer = [f"# {key}={trace.footer[key]}\n" for key in sorted(trace.footer)]
    return "".join(line + "\r\n" for line in lines) + "".join(footer)


@pytest.mark.parametrize("db", ["signed-zeros", "partly-none", "all-none"])
def test_write_csv_keeps_signed_zeros_apart(tmp_path, db):
    # 0.0 and -0.0 compare equal and hash alike, but are written "0" and "-0"
    zeros = [0.0, -0.0, 0.0, 2.5, -0.0, -0.0, 0.0, 2.5]
    t = ConvergenceTrace()
    for i, z in enumerate(zeros):
        cell = {"signed-zeros": -z, "partly-none": None if i % 3 else -z, "all-none": None}[db]
        t.append(i, 0.5, z, cell, 1.5 + (i % 2), 1.0)
    t.footer.update(stop_reason="max_iters", iterations_run=len(zeros))
    t.write_csv(tmp_path / "t.csv")
    text = (tmp_path / "t.csv").read_bytes().decode()
    assert text == straight_transcription(t)
    assert "-0," in text and ",0," in text
    back = read_trace_csv(tmp_path / "t.csv")

    def bits(column):
        return [None if v is None else float(v).hex() for v in column]

    for name, column in t.columns.items():
        assert bits(back.columns[name]) == bits(column), name


def test_extend_equals_one_append_per_row():
    bulk, rows = make_trace(), make_trace()
    bulk._extend(range(7, 20, 4), 0.25, 0.0, -3.0, [1.5, 2.0, 1.75, 2.25], 1.0)
    for it, lam in zip(range(7, 20, 4), [1.5, 2.0, 1.75, 2.25]):
        rows.append(it, 0.25, 0.0, -3.0, lam, 1.0)
    assert bulk.columns == rows.columns
    with pytest.raises(UsageError, match="must increase"):
        bulk._extend(range(19, 21), 0.25, 0.0, None, [1.5, 1.5], 1.0)
    with pytest.raises(UsageError, match="non-finite"):
        bulk._extend(range(20, 22), 0.25, 0.0, None, [1.5, math.nan], 1.0)
    assert bulk.columns == rows.columns
