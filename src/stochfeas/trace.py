"""Per-iteration convergence traces and their CSV serialization.

Schema: ``iter,elapsed_s,residual,norm_err_db,lambda,extrapolation``.
A trace stores one sequence per CSV column in ``columns``, a dict keyed by
the header names in header order; cell ``i`` of every column belongs to row
``i``.  A ``None`` cell is written empty: the dB column holds ``None`` when
no reference solution was supplied.  Floats are serialized with 17
significant digits so they round-trip exactly.  Footer metadata is
appended as ``#``-prefixed ``key=value`` lines in key order, which the
reader collects into ``footer`` as strings: every run's ``stop_reason``,
``atol`` and ``iterations_run``, a relaxed fixed point run's ``errors``,
and, when the run has a reference point, ``final_norm_err_db``, the dB
distance of its final iterate to it.  An averaged trace
(``diagnostics.AveragedTrace``) is a trace with two more columns and numpy
arrays as columns; the same writer writes it.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .exceptions import UsageError

CSV_HEADER = ("iter", "elapsed_s", "residual", "norm_err_db", "lambda", "extrapolation")


def format_float(x: float) -> str:
    return format(float(x), ".17g")


def _as_list(col) -> list:
    return col.tolist() if isinstance(col, np.ndarray) else col


@dataclass
class ConvergenceTrace:
    """Append-only record of a single run.

    Rows are appended by the owning run only; iterations must be strictly
    increasing and every recorded value finite (a missing dB cell is
    allowed, a non-finite one is not).
    """

    columns: dict = field(default_factory=lambda: {name: [] for name in CSV_HEADER})
    footer: dict = field(default_factory=dict)

    def append(self, iteration, elapsed, residual, norm_err_db, lam, extrapolation):
        cols = self.columns
        its = cols["iter"]
        if its and iteration <= its[-1]:
            raise UsageError(f"trace iterations must increase: {iteration} after {its[-1]}")
        finite = (math.isfinite(elapsed) and math.isfinite(residual)
                  and math.isfinite(lam) and math.isfinite(extrapolation)
                  and (norm_err_db is None or math.isfinite(norm_err_db)))
        if not finite:
            raise UsageError(f"non-finite trace value at iteration {iteration}")
        its.append(int(iteration))
        cols["elapsed_s"].append(float(elapsed))
        cols["residual"].append(float(residual))
        cols["norm_err_db"].append(None if norm_err_db is None else float(norm_err_db))
        cols["lambda"].append(float(lam))
        cols["extrapolation"].append(float(extrapolation))

    def _extend(self, iterations: range, elapsed, residual, norm_err_db, lams, extrapolation):
        """Append one row per iteration of the increasing range ``iterations``,
        with relaxation ``lams[i]`` on row i and every other cell shared: the
        recorded rows of a stretch of no-op iterations, checked like ``append``."""
        cols = self.columns
        its = cols["iter"]
        if its and iterations[0] <= its[-1]:
            raise UsageError(f"trace iterations must increase: {iterations[0]} after {its[-1]}")
        if len(lams) != len(iterations):
            raise UsageError(f"{len(lams)} relaxations for {len(iterations)} rows")
        finite = (math.isfinite(elapsed) and math.isfinite(residual)
                  and math.isfinite(extrapolation) and all(map(math.isfinite, lams))
                  and (norm_err_db is None or math.isfinite(norm_err_db)))
        if not finite:
            raise UsageError(f"non-finite trace value in iterations {iterations}")
        rows = len(iterations)
        its.extend(iterations)
        cols["elapsed_s"].extend([float(elapsed)] * rows)
        cols["residual"].extend([float(residual)] * rows)
        cols["norm_err_db"].extend([None if norm_err_db is None else float(norm_err_db)] * rows)
        cols["lambda"].extend(map(float, lams))
        cols["extrapolation"].extend([float(extrapolation)] * rows)

    def __len__(self):
        return len(self.columns["iter"])

    def column(self, name: str) -> Optional[np.ndarray]:
        """The named column as an array (int64 for ``iter``), or None when
        its cells are empty."""
        col = self.columns[name]
        if len(col) and col[0] is None:
            return None
        return np.array(col, dtype=np.int64 if name == "iter" else float)

    def iterations(self) -> np.ndarray:
        return self.column("iter")

    def residuals(self) -> np.ndarray:
        return self.column("residual")

    def db_column(self) -> Optional[np.ndarray]:
        return self.column("norm_err_db") if len(self) else None

    def lambdas(self) -> np.ndarray:
        return self.column("lambda")

    def extrapolations(self) -> np.ndarray:
        return self.column("extrapolation")

    def final_residual(self) -> float:
        if not len(self):
            raise UsageError("empty trace has no final residual")
        return self.columns["residual"][-1]

    def write_csv(self, path) -> None:
        # rows end in "\r\n" like the csv module's writer (which reads them
        # back), footer lines in "\n"
        cols = [map(str, _as_list(self.columns["iter"]))]
        cols += [_float_cells(col) for col in list(self.columns.values())[1:]]
        with open(path, "w", newline="") as fh:
            fh.write(",".join(self.columns) + "\r\n")
            fh.writelines([",".join(cells) + "\r\n" for cells in zip(*cols)])
            for key in sorted(self.footer):
                fh.write(f"# {key}={self.footer[key]}\n")


def _float_cells(col) -> list:
    """The CSV cells of one float column: ``format_float`` of each value,
    and "" for None.

    Each distinct value is formatted once, through a memo keyed by the
    value's bits: 0.0 and -0.0 compare equal and hash alike, but are
    written "0" and "-0".  The rows of a stretch of no-op iterations repeat
    every cell but ``iter`` and ``lambda``.
    """
    # a None cell becomes the one canonical NaN; stored values are finite
    values = np.asarray(col, dtype=np.float64)
    bits, inverse = np.unique(values.view(np.int64), return_inverse=True)
    texts = np.array(["" if v != v else format_float(v)
                      for v in bits.view(np.float64).tolist()], dtype=object)
    return texts[inverse].tolist()


def read_trace_csv(path) -> ConvergenceTrace:
    """Read a per-run trace CSV; a malformed row is a UsageError naming its line."""
    trace = ConvergenceTrace()
    linenos, body = [], []
    with open(path, newline="") as fh:
        for lineno, ln in enumerate(fh, 1):
            if ln.startswith("#"):
                key, _, val = ln[1:].strip().partition("=")
                trace.footer[key.strip()] = val.strip()
            else:
                linenos.append(lineno)
                body.append(ln)
    reader = csv.reader(body)
    header = tuple(next(reader, ()))
    if header != CSV_HEADER:
        raise UsageError(f"unexpected trace header {header}")
    for lineno, row in zip(linenos[1:], reader):
        if not row:
            continue
        try:
            if len(row) != len(CSV_HEADER):
                raise UsageError(f"{len(row)} cells, expected {len(CSV_HEADER)}")
            trace.append(int(row[0]), float(row[1]), float(row[2]),
                         None if row[3] == "" else float(row[3]),
                         float(row[4]), float(row[5]))
        except ValueError as exc:
            raise UsageError(f"{path}, line {lineno}: {exc}") from None
    return trace
