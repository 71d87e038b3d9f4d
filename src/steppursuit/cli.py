"""Command-line interface.

Subcommands:
  approx     read a CSV column, run greedy pursuit, emit a JSON run report
  simulate   generate a named scenario preset as CSV (t, value, state, true_mean)
  compare    pursuit vs k-means piecewise means against a known mean path
  verify     run a numerical verification sweep and report the worst violation

Exit codes: 0 success, 1 verification failure, 2 usage, input or output error,
or an allocation refused.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import math
import os
import shutil
import stat
import sys
import tempfile
import time
import warnings
from dataclasses import asdict

import numpy as np

from .pursuit import GreedyExpansion, PursuitConfig, breakpoints, reconstruct, run_pursuit
from .simulate import PRESETS, kmeans_1d, mse, run_preset
from .verify import SUITES, run_suite

__all__ = ["main", "build_parser", "report_to_json"]


def _write_text(path: str | None, pieces) -> None:
    """Write text, given as an iterable of str pieces, to a path, or to
    stdout for None or "-".

    A regular file, or a path that does not exist yet, is written to a temp
    file that is then renamed onto it, so a crash, or an exception raised by
    `pieces` midway, never leaves a half-written file. The rename goes to the
    resolved path, so a symlink stays a link, and the file gets the mode
    open() gives a new file under the umask. Any other target, such as a
    device or a FIFO, is written in place, and so is stdout: there a failure
    midway leaves the pieces written so far.
    """
    if path is None or path == "-":
        sys.stdout.writelines(pieces)
        return
    try:
        try:
            regular = stat.S_ISREG(os.stat(path).st_mode)
        except FileNotFoundError:
            regular = True
        if not regular:
            with open(path, "w") as fh:
                fh.writelines(pieces)
            return
        umask = os.umask(0)
        os.umask(umask)
        target = os.path.realpath(path)
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(target), prefix=".tmp.")
        try:
            with os.fdopen(fd, "w") as fh:
                os.fchmod(fd, 0o666 & ~umask)  # mkstemp leaves 0600
                fh.writelines(pieces)
            os.replace(tmp, target)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as e:
        raise ValueError(f"cannot write {path}: {e.strerror}") from e


def _column_index(first: list[str], column: str) -> tuple[int, bool]:
    """Resolve a column given by zero-based index or header name.

    Returns (index, whether the first row is a header). A header row is
    assumed when the requested cell of the first row does not parse as a
    number.
    """
    try:
        idx = int(column)
    except ValueError:
        header = [c.strip() for c in first]
        if column not in header:
            raise ValueError(f"column {column!r} not found in header {header}") from None
        return header.index(column), True
    if idx < 0 or idx >= len(first):
        raise ValueError(f"column index {idx} out of range")
    try:
        float(first[idx])
        return idx, False
    except ValueError:
        return idx, True


def _check_rows(path: str, idx: int, skip: int) -> None:
    """Raise the ValueError that names the first bad data row of a CSV file,
    by its file line; return if no row is bad.

    Rows start after `skip` lines and blank lines are skipped. A row is bad
    when `csv` cannot parse it, when it has no cell `idx`, or when that cell
    is not a number to `np.loadtxt`: `float()` of it fails, or it holds an
    underscore or, past surrounding whitespace, a non-ASCII character. This
    pass only explains a failed parse; it returns no values.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        for _ in range(skip):
            fh.readline()
        reader = csv.reader(fh)
        try:
            for row in filter(None, reader):
                if len(row) <= idx:
                    raise ValueError(f"row {skip + reader.line_num}: missing column {idx}")
                cell = row[idx].strip()
                try:
                    float(cell)
                    number = cell.isascii() and "_" not in cell
                except ValueError:
                    number = False
                if not number:
                    raise ValueError(f"row {skip + reader.line_num}: not a number: {cell!r}")
        except csv.Error as e:
            # a malformed row, e.g. a field past csv.field_size_limit()
            raise ValueError(f"row {skip + reader.line_num}: {e}") from None


def read_csv_column(path: str, column: str) -> np.ndarray:
    """One CSV column as a float64 array, parsed by `np.loadtxt`'s C reader.

    The first non-blank row, read by `csv`, names the column or, when the
    requested cell is a number, is the first data row. Blank lines are
    skipped, and quoted cells are unquoted. A cell is parsed bit for bit as
    `float()` parses it, but underscores and non-ASCII digits are not
    numbers. A UTF-8 byte-order mark is dropped; a file that is not UTF-8
    raises UnicodeDecodeError, a ValueError. When the parse fails, or gives
    a non-finite value (a field too long for `csv` parses to inf),
    `_check_rows` names the bad row by its file line. A pipe or a device is
    read once, into a temporary regular copy that is then parsed.
    """
    try:
        if not stat.S_ISREG(os.stat(path).st_mode):
            # the parse opens the file up to three times
            with tempfile.TemporaryDirectory() as tmp:
                copy = os.path.join(tmp, "input.csv")
                with open(path, "rb") as src, open(copy, "wb") as dst:
                    shutil.copyfileobj(src, dst)
                return read_csv_column(copy, column)
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            skip = 0  # the lines before the first data row
            for first in reader:
                if first:
                    break
                skip = reader.line_num
            else:
                raise ValueError("empty input")
            idx, has_header = _column_index(first, column)
            if has_header:
                skip = reader.line_num
        with warnings.catch_warnings():
            # a header and no rows is "empty input" below, with no warning
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            try:
                out = np.loadtxt(path, delimiter=",", usecols=idx, skiprows=skip, comments=None,
                                 quotechar='"', encoding="utf-8-sig", ndmin=1)
            except UnicodeDecodeError:
                raise  # a ValueError too, but not a bad cell
            except ValueError:
                _check_rows(path, idx, skip)
                raise
        if not out.size:
            raise ValueError("empty input")
        if not np.isfinite(out).all():
            _check_rows(path, idx, skip)
    except OSError as e:
        raise ValueError(f"cannot read {path}: {e.strerror}") from e
    except csv.Error as e:
        # a malformed first row, e.g. a field past csv.field_size_limit()
        raise ValueError(f"row {reader.line_num}: {e}") from None
    return out


def _reprs(chunk: np.ndarray) -> list[str]:
    """The reprs of the elements of a non-empty 1-D int or float array, as
    Python writes its ints and floats.

    A run of bitwise-equal elements gets one repr, which is then repeated, so
    a step function's few levels are formatted a few times, not once per
    cell. Comparing bits keeps -0.0 apart from 0.0.
    """
    bits = chunk.view(f"i{chunk.itemsize}")
    starts = np.flatnonzero(np.concatenate(([True], bits[1:] != bits[:-1])))
    reprs = list(map(repr, chunk[starts].tolist()))
    if len(reprs) < chunk.size:
        runs = np.diff(starts, append=chunk.size)
        reprs = np.repeat(np.array(reprs, dtype=object), runs).tolist()
    return reprs


def _report_pieces(report: dict):
    """The text of `report_to_json`, as str pieces in order.

    With an indent, json encodes in pure Python, one element at a time. So
    each top-level value is written on its own: a non-empty 1-D int64 or
    finite float64 array as `_reprs` of 4,096 elements at a time, which is
    how json writes them, so its text is never whole in memory, and any
    other value by json one level deeper, after `tolist()` for an array.
    """
    if not report:
        yield "{}\n"
        return
    sep = "{\n  "  # the first separator opens the object
    for key, v in report.items():
        yield sep + json.dumps(key) + ": "
        sep = ",\n  "
        if isinstance(v, np.ndarray):
            fast = v.dtype in (np.int64, np.float64) and v.ndim == 1 and v.size
            if fast and np.isfinite(v).all():
                item_sep = "[\n    "  # the first separator opens the list
                for i in range(0, v.size, 4096):
                    yield item_sep + ",\n    ".join(_reprs(v[i : i + 4096]))
                    item_sep = ",\n    "
                yield "\n  ]"
                continue
            v = v.tolist()
        yield json.dumps(v, indent=2).replace("\n", "\n  ")
    yield "\n}\n"


def report_to_json(report: dict) -> str:
    """`json.dumps(report, indent=2) + "\\n"`, byte for byte, for str keys,
    with any numpy array written as its `tolist()`."""
    return "".join(_report_pieces(report))


def expansion_report(
    source: str, config: PursuitConfig, expansion: GreedyExpansion, seconds: float
) -> dict:
    """Everything needed to reproduce a pursuit run, ready for `report_to_json`.

    `residual` and `reconstruction` stay float64 arrays, which the report
    writer formats a slice at a time. It writes each float as its repr,
    which round-trips exactly, so the report is a lossless record of the
    expansion.
    """
    rec = reconstruct(expansion)
    return {
        "input": source,
        "config": asdict(config),
        "shift": expansion.shift,
        "terms": [
            {
                "iteration": m,
                "start": t.atom.start,
                "length": t.atom.length,
                "coefficient": t.coefficient,
            }
            for m, t in enumerate(expansion.terms)
        ],
        "residual_norms": list(expansion.norm_history),
        "residual": expansion.residual,
        "reconstruction": rec,
        "breakpoints": breakpoints(rec),
        "timing_seconds": seconds,
    }


def _fit(values: np.ndarray, args) -> tuple[PursuitConfig, GreedyExpansion, float]:
    """Run the pursuit the pursuit flags ask for; returns (config, expansion, seconds)."""
    config = PursuitConfig(
        max_iterations=args.max_iter,
        residual_epsilon=args.residual_eps,
        coefficient_epsilon=args.coef_eps,
        pre_shift=args.shift,
    )
    t0 = time.perf_counter()
    # a global lookup, so a wrapper set on this module's run_pursuit (the
    # benchmark's tracer) sees every fit
    expansion = run_pursuit(values, config)
    return config, expansion, time.perf_counter() - t0


def _csv_pieces(header: str, *columns: np.ndarray | None):
    """CSV text, as str pieces: the header line, then the rows 4,096 at a time.

    Row t, counting from 1, holds t and then each column's element as its
    repr. A None column leaves its cells empty; the first must not be None.
    """
    yield header
    for i in range(0, columns[0].size, 4096):
        cells = [itertools.repeat("") if c is None else _reprs(c[i : i + 4096]) for c in columns]
        yield "\n".join(map(",".join, zip(map(str, itertools.count(i + 1)), *cells))) + "\n"


def cmd_approx(args) -> int:
    if args.plot_out == "-" and args.out in (None, "-"):
        raise ValueError("the report and --plot-out - would both go to stdout; give --out a path")
    values = read_csv_column(args.input, args.column)
    config, expansion, seconds = _fit(values, args)
    report = expansion_report(args.input, config, expansion, seconds)
    _write_text(args.out, _report_pieces(report))
    if args.plot_out:
        pieces = _csv_pieces("t,value,reconstruction\n", values, report["reconstruction"])
        _write_text(args.plot_out, pieces)
    return 0


def cmd_simulate(args) -> int:
    out = run_preset(args.preset, args.T, args.seed)
    states = out.states if out.states.size else None  # no hidden states: empty cells
    pieces = _csv_pieces("t,value,state,true_mean\n", out.values, states, out.true_means)
    _write_text(args.out, pieces)
    return 0


def cmd_compare(args) -> int:
    values = read_csv_column(args.input, args.column)
    truth = read_csv_column(args.input, "true_mean")
    config, expansion, seconds = _fit(values, args)
    rec = reconstruct(expansion)

    centers, assign = kmeans_1d(values, args.k)
    km_path = centers[assign]

    report = {
        "input": args.input,
        "config": {**asdict(config), "k": args.k},
        "pursuit_mse": mse(rec, truth),
        "raw_mse": mse(values, truth),
        "kmeans_mse": mse(km_path, truth),
        "kmeans_centers": centers,
        "kmeans_assignments": assign,
        "n_terms": len(expansion.terms),
        "breakpoints": breakpoints(rec),
        "residual_norm": expansion.norm_history[-1],
        "timing_seconds": seconds,
    }
    _write_text(args.out, _report_pieces(report))
    return 0


def cmd_verify(args) -> int:
    report = run_suite(
        args.suite,
        trials=args.trials,
        seed=args.seed,
        n_max=args.n,
        n=args.n,
        grid_step=args.grid_step,
        xi_step=args.xi_step,
    )
    _write_text(args.out, _report_pieces(report))
    status = "PASS" if report["passed"] else "FAIL"
    print(
        f"{status} {args.suite}: max violation {report['max_violation']:.3e} "
        f"(tolerance {report['tolerance']:.0e})",
        file=sys.stderr,
    )
    return 0 if report["passed"] else 1


def _add_pursuit_flags(p: argparse.ArgumentParser, default_iter: int) -> None:
    p.add_argument("--max-iter", type=int, default=default_iter,
                   help=f"iteration cap (default {default_iter})")
    p.add_argument("--residual-eps", type=float, default=0.0,
                   help="stop when the residual norm reaches this")
    p.add_argument("--coef-eps", type=float, default=0.0,
                   help="stop when the selected coefficient magnitude reaches this")
    p.add_argument("--shift", type=float, default=None,
                   help="constant added before pursuit and removed at reconstruction")
    p.add_argument("--column", default="value",
                   help="CSV column to read: header name or zero-based index")
    p.add_argument("--out", default=None, help="output path (default stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="steppursuit",
        description="Approximate scalar sequences by step functions via greedy window pursuit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("approx", help="pursue a CSV column, write a JSON report")
    p.add_argument("input", help="CSV file")
    _add_pursuit_flags(p, default_iter=10)
    p.add_argument("--plot-out", default=None,
                   help="also write value/reconstruction pairs as CSV")
    p.set_defaults(func=cmd_approx)

    p = sub.add_parser("simulate", help="generate a scenario preset as CSV")
    p.add_argument("preset", choices=sorted(PRESETS))
    p.add_argument("--T", type=int, default=None, help="length (preset default)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("compare", help="pursuit vs k-means against a true mean path")
    p.add_argument("input", help="CSV with value and true_mean columns")
    _add_pursuit_flags(p, default_iter=21)
    p.add_argument("--k", type=int, default=2, help="number of k-means clusters")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("verify", help="run a numerical verification sweep")
    p.add_argument("suite", choices=sorted(SUITES))
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--n", type=int, default=None,
                   help="max sequence length (theorem1, theorem2, lemma1) or the "
                   "sequence length (energy); other suites ignore it")
    p.add_argument("--grid-step", type=float, default=None,
                   help="scale and centre grid step (theorem1, theorem2, lemma1); "
                   "other suites ignore it")
    p.add_argument("--xi-step", type=float, default=None,
                   help="frequency grid step (theorem1, lemma1); other suites ignore it")
    p.add_argument("--out", default=None, help="report path (default stdout)")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "simulate" and (args.T is not None and args.T < 1):
        parser.error("--T must be >= 1")
    if args.command == "verify":
        for flag, v in (("--trials", args.trials), ("--n", args.n)):
            if v is not None and v < 1:
                parser.error(f"{flag} must be >= 1")
        for flag, v in (("--grid-step", args.grid_step), ("--xi-step", args.xi_step)):
            if v is not None and not (math.isfinite(v) and v > 0):
                parser.error(f"{flag} must be finite and > 0")
    try:
        return args.func(args)
    except (ValueError, MemoryError) as e:  # bad input or files, a refused allocation
        # a bare MemoryError carries no message
        print(f"error: {str(e) or 'out of memory'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
