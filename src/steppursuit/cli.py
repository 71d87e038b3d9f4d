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
import stat
import sys
import tempfile
import time
from dataclasses import asdict

import numpy as np

from .pursuit import GreedyExpansion, PursuitConfig, breakpoints, reconstruct, run_pursuit
from .simulate import PRESETS, kmeans_1d, mse, run_preset
from .verify import SUITES, run_suite

__all__ = ["main", "build_parser", "report_to_json"]


def _write_text(path: str | None, text: str) -> None:
    """Write text to a path, or to stdout for None or "-".

    A regular file, or a path that does not exist yet, is written to a temp
    file that is then renamed onto it, so a crash never leaves a half-written
    file. The rename goes to the resolved path, so a symlink stays a link,
    and the file gets the mode open() gives a new file under the umask. Any
    other target, such as a device or a FIFO, is written in place.
    """
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    try:
        try:
            regular = stat.S_ISREG(os.stat(path).st_mode)
        except FileNotFoundError:
            regular = True
        if not regular:
            with open(path, "w") as fh:
                fh.write(text)
            return
        umask = os.umask(0)
        os.umask(umask)
        target = os.path.realpath(path)
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(target), prefix=".tmp.")
        try:
            with os.fdopen(fd, "w") as fh:
                os.fchmod(fd, 0o666 & ~umask)  # mkstemp leaves 0600
                fh.write(text)
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


def read_csv_column(path: str, column: str) -> np.ndarray:
    """One CSV column as floats, in a single pass over the file.

    Blank lines are skipped, and error messages cite the file line. A UTF-8
    byte-order mark is dropped; a file that is not UTF-8 raises
    UnicodeDecodeError, a ValueError.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            rows = filter(None, reader)
            first = next(rows, None)
            if first is None:
                raise ValueError("empty input")
            idx, has_header = _column_index(first, column)
            if not has_header:
                rows = itertools.chain([first], rows)
            out = []
            for row in rows:
                if idx >= len(row):
                    raise ValueError(f"row {reader.line_num}: missing column {idx}")
                cell = row[idx].strip()
                try:
                    out.append(float(cell))
                except ValueError:
                    raise ValueError(f"row {reader.line_num}: not a number: {cell!r}") from None
    except OSError as e:
        raise ValueError(f"cannot read {path}: {e.strerror}") from e
    except csv.Error as e:
        # a malformed row, e.g. a field past csv.field_size_limit()
        raise ValueError(f"row {reader.line_num}: {e}") from None
    if not out:
        raise ValueError("empty input")
    return np.asarray(out)


def report_to_json(report: dict) -> str:
    """`json.dumps(report, indent=2) + "\\n"`, byte for byte, for str keys.

    With an indent, json encodes in pure Python, one element at a time. So
    each top-level value is written on its own: a list of ints and finite
    floats as their reprs, which is how json writes them, and any other
    value, a non-finite float list included, by json one level deeper. The
    pieces are joined once, so the text is built without extra copies.
    """
    if not report:
        return "{}\n"
    parts = []
    for key, v in report.items():
        body = None
        if isinstance(v, (list, tuple)) and v and set(map(type, v)) <= {int, float}:
            # a chunk at a time, so a long list's reprs are never all alive
            body = ",\n    ".join(
                [",\n    ".join(map(repr, v[i : i + 4096])) for i in range(0, len(v), 4096)]
            )
        parts += (",\n  ", json.dumps(key), ": ")
        # only inf and nan have an "n" in their repr; json writes Infinity, NaN
        if body is not None and "n" not in body:
            parts += ("[\n    ", body, "\n  ]")
        else:
            parts.append(json.dumps(v, indent=2).replace("\n", "\n  "))
    parts[0] = "{\n  "  # the first separator opens the object
    parts.append("\n}\n")
    return "".join(parts)


def expansion_report(
    source: str, config: PursuitConfig, expansion: GreedyExpansion, seconds: float
) -> dict:
    """Everything needed to reproduce a pursuit run, JSON-ready.

    `report_to_json` writes each float as its repr, which round-trips
    exactly, so the report is a lossless record of the expansion.
    """
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
        "residual": expansion.residual.tolist(),
        "reconstruction": reconstruct(expansion).tolist(),
        "breakpoints": breakpoints(expansion),
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


def cmd_approx(args) -> int:
    values = read_csv_column(args.input, args.column)
    config, expansion, seconds = _fit(values, args)
    report = expansion_report(args.input, config, expansion, seconds)
    _write_text(args.out, report_to_json(report))
    if args.plot_out:
        rec = report["reconstruction"]
        lines = ["t,value,reconstruction"]
        lines += [f"{i + 1},{v!r},{r!r}" for i, (v, r) in enumerate(zip(values.tolist(), rec))]
        _write_text(args.plot_out, "\n".join(lines) + "\n")
    return 0


def cmd_simulate(args) -> int:
    out = run_preset(args.preset, args.T, args.seed)
    lines = ["t,value,state,true_mean"]
    has_states = out.states.size > 0
    for i in range(len(out.values)):
        state = str(int(out.states[i])) if has_states else ""
        lines.append(f"{i + 1},{float(out.values[i])!r},{state},{float(out.true_means[i])!r}")
    _write_text(args.out, "\n".join(lines) + "\n")
    return 0


def cmd_compare(args) -> int:
    values = read_csv_column(args.input, args.column)
    truth = read_csv_column(args.input, "true_mean")
    config, expansion, seconds = _fit(values, args)
    rec = reconstruct(expansion)

    centers, assign = kmeans_1d(values, args.k, args.seed)
    km_path = centers[assign]

    report = {
        "input": args.input,
        "config": {**asdict(config), "k": args.k, "seed": args.seed},
        "pursuit_mse": mse(rec, truth),
        "raw_mse": mse(values, truth),
        "kmeans_mse": mse(km_path, truth),
        "kmeans_centers": [float(c) for c in centers],
        "kmeans_assignments": [int(i) for i in assign],
        "n_terms": len(expansion.terms),
        "breakpoints": breakpoints(expansion),
        "residual_norm": expansion.norm_history[-1],
        "timing_seconds": seconds,
    }
    _write_text(args.out, report_to_json(report))
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
    _write_text(args.out, report_to_json(report))
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
    p.add_argument("--seed", type=int, default=0, help="k-means seeding")
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
