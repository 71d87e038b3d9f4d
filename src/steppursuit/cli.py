"""Command-line interface.

Subcommands:
  approx     read a CSV column, run greedy pursuit, emit a JSON run report
  simulate   generate a named scenario preset as CSV (t, value, state, true_mean)
  compare    pursuit vs k-means piecewise means against a known mean path
  verify     run a numerical verification sweep and report the worst violation

Exit codes: 0 success, 1 verification failure, 2 usage, input or output error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import tempfile
import time
from dataclasses import asdict

import numpy as np

from .maximizer import WindowAtom
from .pursuit import (
    ExpansionTerm,
    GreedyExpansion,
    PursuitConfig,
    breakpoints,
    reconstruct,
    run_pursuit,
)
from .core import l2_norm
from .simulate import PRESETS, kmeans_1d, mse, run_preset
from .verify import SUITES, run_suite

__all__ = ["main", "build_parser", "report_to_json", "report_from_json"]


class InputError(Exception):
    """Unreadable or unwritable file, malformed CSV or missing column; maps to
    exit code 2."""


def _write_text(path: str | None, text: str) -> None:
    # write-then-rename so a crash never leaves a half-written file
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    target = os.path.abspath(path)
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(target), prefix=".tmp.")
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(text)
            os.replace(tmp, target)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as e:
        raise InputError(f"cannot write {path}: {e.strerror}") from e


def _read_rows(path: str) -> list[list[str]]:
    try:
        with open(path, newline="") as fh:
            return [row for row in csv.reader(fh) if row]
    except OSError as e:
        raise InputError(f"cannot read {path}: {e.strerror}") from e


def _column_index(rows: list[list[str]], column: str) -> tuple[int, int]:
    """Resolve a column given by zero-based index or header name.

    Returns (index, first_data_row). A header row is assumed when the
    requested cell of row 0 does not parse as a number.
    """
    if not rows:
        raise InputError("empty input")
    try:
        idx = int(column)
        named = False
    except ValueError:
        idx = -1
        named = True
    if named:
        header = [c.strip() for c in rows[0]]
        if column not in header:
            raise InputError(f"column {column!r} not found in header {header}")
        return header.index(column), 1
    if idx < 0 or idx >= len(rows[0]):
        raise InputError(f"column index {idx} out of range")
    try:
        float(rows[0][idx])
        return idx, 0
    except ValueError:
        return idx, 1  # row 0 is a header


def _parse_column(rows: list[list[str]], column: str) -> np.ndarray:
    idx, start = _column_index(rows, column)
    out = []
    for r, row in enumerate(rows[start:], start=start + 1):
        if idx >= len(row):
            raise InputError(f"row {r}: missing column {idx}")
        cell = row[idx].strip()
        try:
            out.append(float(cell))
        except ValueError:
            raise InputError(f"row {r}: not a number: {cell!r}") from None
    if not out:
        raise InputError("empty input")
    return np.asarray(out)


def read_csv_column(path: str, column: str) -> np.ndarray:
    return _parse_column(_read_rows(path), column)


def report_to_json(report: dict) -> str:
    return json.dumps(report, indent=2) + "\n"


def report_from_json(text: str) -> dict:
    return json.loads(text)


def expansion_report(
    source: str, config: PursuitConfig, expansion: GreedyExpansion, seconds: float
) -> dict:
    """Everything needed to reproduce or replay a pursuit run, JSON-ready.

    Floats go through repr via json, which round-trips exactly, so the
    report can serve as a lossless record of the expansion.
    """
    rec = reconstruct(expansion)
    return {
        "input": source,
        "config": asdict(config),
        "shift": expansion.shift,
        "terms": [
            {
                "iteration": t.iteration,
                "start": t.atom.start,
                "length": t.atom.length,
                "coefficient": t.coefficient,
            }
            for t in expansion.terms
        ],
        "residual_norms": list(expansion.norm_history),
        "residual": [float(x) for x in expansion.residual],
        "reconstruction": [float(x) for x in rec],
        "breakpoints": breakpoints(expansion),
        "timing_seconds": seconds,
    }


def expansion_from_report(report: dict) -> GreedyExpansion:
    """Rebuild the expansion object a report was written from."""
    terms = tuple(
        ExpansionTerm(
            WindowAtom(t["start"], t["length"]), t["coefficient"], t["iteration"]
        )
        for t in report["terms"]
    )
    return GreedyExpansion(
        terms,
        np.asarray(report["residual"], dtype=float),
        tuple(report["residual_norms"]),
        report["shift"],
    )


def _pursuit_config(args) -> PursuitConfig:
    return PursuitConfig(
        max_iterations=args.max_iter,
        residual_epsilon=args.residual_eps,
        coefficient_epsilon=args.coef_eps,
        pre_shift=args.shift,
    )


def cmd_approx(args) -> int:
    values = read_csv_column(args.input, args.column)
    config = _pursuit_config(args)
    t0 = time.perf_counter()
    expansion = run_pursuit(values, config)
    seconds = time.perf_counter() - t0
    report = expansion_report(args.input, config, expansion, seconds)
    _write_text(args.out, report_to_json(report))
    if args.plot_out:
        rec = report["reconstruction"]
        lines = ["t,value,reconstruction"]
        lines += [
            f"{i + 1},{float(v)!r},{float(r)!r}" for i, (v, r) in enumerate(zip(values, rec))
        ]
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
    rows = _read_rows(args.input)
    values = _parse_column(rows, args.column)
    truth = _parse_column(rows, "true_mean")
    config = _pursuit_config(args)
    t0 = time.perf_counter()
    expansion = run_pursuit(values, config)
    seconds = time.perf_counter() - t0
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
        "residual_norm": l2_norm(expansion.residual),
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
    p.add_argument("--n", type=int, default=None, help="max sequence length")
    p.add_argument("--grid-step", type=float, default=None)
    p.add_argument("--xi-step", type=float, default=None)
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
    except (InputError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
