"""steppursuit benchmark: one workload per process, closed loop, one caller.

    python3 bench/run.py --workload approx-noise --seed 0 --seconds 40 --trace 0

Run from a source checkout: the program is imported from `src/` next to this
directory and reached only through `steppursuit.cli.main([...])`. Every op's
output is checked. The last line of stdout is one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`. See README.md.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread, so a 2-core box measures the program and not the
# scheduler. This has to happen before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import importlib
import io
import json
import resource
import shutil
import statistics
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = HERE / "golden.json"
DEFAULT_SEED = 0
SETUP_REPEATS = 31
REL_TOL = 1e-9


# --- inputs: the benchmark's own seeded generators, independent of
# steppursuit.simulate so a change there cannot shift a workload.

# sim1-3state: 3-state chain, per-state Normal(mean, 0.01).
REGIME_MEANS = np.array([-0.5, 0.1, 0.5])
REGIME_SD = 0.1
REGIME_TRANSITIONS = np.array([
    [0.98, 0.02, 0.0],
    [0.005, 0.98, 0.015],
    [0.02, 0.08, 0.90],
])


def noise(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.standard_normal(n)


def regime(rng: np.random.Generator, n: int) -> np.ndarray:
    cum = np.cumsum(REGIME_TRANSITIONS, axis=1)
    u = rng.random(n)
    states = np.empty(n, dtype=np.intp)
    s = int(rng.integers(len(REGIME_MEANS)))
    for t in range(n):
        s = min(int(np.searchsorted(cum[s], u[t], side="right")), len(REGIME_MEANS) - 1)
        states[t] = s
    return REGIME_MEANS[states] + REGIME_SD * rng.standard_normal(n)


FAMILIES = {"noise": noise, "regime": regime}


def write_csv(path: Path, values: np.ndarray) -> None:
    # repr of a Python float round-trips exactly
    rows = (f"{i},{v!r}" for i, v in enumerate(values.tolist(), start=1))
    path.write_text("t,value\n" + "\n".join(rows) + "\n")


# --- output checks: each returns a list of problems, empty when the op is good.

def check_approx(report: dict, values: np.ndarray, golden: list | None) -> list[str]:
    """Energy identity, residual + reconstruction = input, nonincreasing norms,
    and, when given, the golden (start, length, coefficient) list."""
    residual = np.asarray(report["residual"], dtype=float)
    rec = np.asarray(report["reconstruction"], dtype=float)
    norms = np.asarray(report["residual_norms"], dtype=float)
    terms = report["terms"]
    coefs = np.asarray([t["coefficient"] for t in terms], dtype=float)
    if residual.shape != values.shape or rec.shape != values.shape:
        return ["residual or reconstruction length differs from the input"]
    if norms.size != len(terms) + 1:
        return ["residual_norms does not have one entry per term plus one"]
    problems = []
    total = float(values @ values)
    spent = np.concatenate(([0.0], np.cumsum(coefs ** 2)))
    drift = np.abs(total - (spent + norms ** 2)) / total
    final = abs(float(residual @ residual) - norms[-1] ** 2) / total
    if max(float(drift.max()), final) > REL_TOL:
        problems.append(f"energy identity off by {max(float(drift.max()), final):.3e} relative")
    gap = float(np.abs(residual + rec - values).max())
    if gap > REL_TOL * max(1.0, float(np.abs(values).max())):
        problems.append(f"residual + reconstruction differs from the input by {gap:.3e}")
    if np.any(np.diff(norms) > 0.0):
        problems.append("residual norm increased")
    if golden is not None:
        got = [[t["start"], t["length"]] for t in terms]
        want = [[g[0], g[1]] for g in golden]
        if got != want:
            problems.append(f"(start, length) list {got} differs from golden {want}")
        elif any(abs(c - g[2]) > REL_TOL * abs(g[2]) for c, g in zip(coefs.tolist(), golden)):
            problems.append("coefficients differ from golden beyond 1e-9 relative")
    return problems


def check_verify(report: dict, suite: str) -> list[str]:
    if report.get("suite") != suite:
        return [f"report is for suite {report.get('suite')!r}, not {suite!r}"]
    if report.get("passed") is not True:
        return [f"{suite}: passed is not true (max violation {report.get('max_violation')})"]
    return []


# --- ops

def call_main(cli, argv: list[str], tracer: tracing.Tracer | None):
    """Run the CLI in-process. Returns (exit code or None on exception, seconds, problems)."""
    stderr = io.StringIO()
    t0 = perf_counter()
    try:
        with contextlib.redirect_stderr(stderr):
            if tracer is None:
                code = cli.main(argv)
            else:
                code = tracer.call(tracing.ROOT_SPAN, cli.main, (argv,), {})
    except Exception as e:  # an op that raises counts as failed; the loop goes on
        return None, perf_counter() - t0, [f"{argv[0]} raised {type(e).__name__}: {e}"]
    seconds = perf_counter() - t0
    if code != 0:
        return code, seconds, [f"{argv[0]} exited {code}: {stderr.getvalue().strip()}"]
    return code, seconds, []


@dataclass(frozen=True)
class Approx:
    """`approx` on a CSV of n values from one input family."""

    family: str
    n: int
    max_iter: int

    def warm_up(self) -> Approx:
        return Approx(self.family, 64, 2)

    def prepare(self, name: str, seed: int, workdir: Path) -> ApproxOp:
        values = FAMILIES[self.family](np.random.default_rng(seed), self.n)
        return ApproxOp(self, values, golden_terms(name, seed, self.n), workdir)


class ApproxOp:
    def __init__(self, workload: Approx, values: np.ndarray, golden, workdir: Path):
        self.values = values
        self.golden = golden
        csv = workdir / "input.csv"
        write_csv(csv, values)
        self.out = workdir / "report.json"
        self.argv = ["approx", str(csv), "--column", "value",
                     "--max-iter", str(workload.max_iter), "--out", str(self.out)]

    def __call__(self, cli, tracer=None):
        """One op: returns (seconds, problems, bytes written)."""
        self.out.unlink(missing_ok=True)
        code, seconds, problems = call_main(cli, self.argv, tracer)
        if code != 0:
            return seconds, problems, 0
        text = self.out.read_text()
        return seconds, check_approx(json.loads(text), self.values, self.golden), len(text)


# The sweeps draw their own sequences from the sweep seed, and a pass's cost
# grows with the square of the drawn lengths, so a per-run sweep seed would
# move the pass time by tens of percent between runs. The sweep seed is pinned
# to the CLI default; the same trials open criterion 03's sweep.
SWEEP_SEED = 0
TINY_GRID = ("--n", "3", "--grid-step", "0.25", "--xi-step", "0.5")


@dataclass(frozen=True)
class VerifyPass:
    """One pass of `verify` over (suite, trials) pairs, with extra CLI options."""

    sweeps: tuple[tuple[str, int], ...]
    options: tuple[str, ...] = ()

    def warm_up(self) -> VerifyPass:
        return VerifyPass(tuple((suite, 1) for suite, _ in self.sweeps), TINY_GRID)

    def prepare(self, name: str, seed: int, workdir: Path) -> VerifyOp:
        return VerifyOp(self, workdir)


class VerifyOp:
    def __init__(self, workload: VerifyPass, workdir: Path):
        self.runs = []
        for suite, trials in workload.sweeps:
            out = workdir / f"verify-{suite}.json"
            argv = ["verify", suite, "--trials", str(trials), "--seed", str(SWEEP_SEED),
                    *workload.options, "--out", str(out)]
            self.runs.append((suite, argv, out))

    def __call__(self, cli, tracer=None):
        total, problems, size = 0.0, [], 0
        for suite, argv, out in self.runs:
            out.unlink(missing_ok=True)
            code, seconds, failed = call_main(cli, argv, tracer)
            total += seconds
            problems += failed
            if code == 0:
                text = out.read_text()
                size += len(text)
                problems += check_verify(json.loads(text), suite)
        return total, problems, size


# Why each workload exists: see README.md. verify-grid is half the
# theorem1 x4 / lemma1 x10 / theorem2 x50 pass, so a run times more passes.
WORKLOADS = {
    "approx-noise": Approx("noise", 20_000, 10),
    "approx-regime": Approx("regime", 20_000, 10),
    "verify-grid": VerifyPass((("theorem1", 2), ("lemma1", 5), ("theorem2", 25))),
}


def golden_terms(name: str, seed: int, n: int):
    """Golden [start, length, coefficient] list, when one is recorded for this input."""
    entry = json.loads(GOLDEN.read_text()).get(name) if GOLDEN.is_file() else None
    if entry is None or entry["seed"] != seed or entry["n"] != n:
        return None
    return entry["terms"]


# --- set-up and the timed loop

def import_cli():
    """Fresh import of steppursuit.cli from this checkout's src/."""
    for mod in [m for m in sys.modules if m == "steppursuit" or m.startswith("steppursuit.")]:
        del sys.modules[mod]
    cli = importlib.import_module("steppursuit.cli")
    if Path(cli.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"steppursuit imported from {cli.__file__}, not {SRC}")
    return cli


def set_up(workload, name: str, seed: int, workdir: Path):
    """Import the CLI and run one warm-up op on a tiny input, SETUP_REPEATS
    times. Returns the last CLI module and the median set-up seconds."""
    (workdir / "warm-up").mkdir()
    warm = workload.warm_up().prepare(name, seed, workdir / "warm-up")
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        cli = import_cli()
        _, problems, _ = warm(cli)
        times.append(perf_counter() - t0)
        if problems:
            raise RuntimeError(f"warm-up op failed: {problems}")
    return cli, statistics.median(times)


def timed_loop(op, cli, seconds: float, trace: bool):
    """Closed loop, one caller: the next op starts when the last has been checked.

    Stops before an op that would end past the deadline (at least 3 ops, or 2
    when tracing). With tracing, ops alternate untraced and traced, so the
    traced run also measures the tracing overhead.
    """
    tracer = tracing.Tracer()
    times = {False: [], True: []}
    layers = []
    missing: set[str] = set()
    attempted = failed = 0
    deadline = perf_counter() + seconds
    min_ops = 2 if trace else 3
    while attempted < min_ops or perf_counter() + statistics.median(
        times[False] + times[True]
    ) <= deadline:
        traced = trace and attempted % 2 == 1
        installed = tracing.Installation(tracer) if traced else None
        if attempted == 1 and installed is not None and installed.absent:
            print(f"warning: not found, not traced: {', '.join(installed.absent)}",
                  file=sys.stderr)
        try:
            took, problems, size = op(cli, tracer if traced else None)
        finally:
            if installed is not None:
                installed.remove()
        attempted += 1
        times[traced].append(took)
        if traced:
            missing = installed.missing
            layers.append(tracing.aggregate(tracer.take(), size))
        if problems:
            failed += 1
            print(f"op {attempted} failed: {'; '.join(problems)}", file=sys.stderr)
    return times, layers, missing, attempted, failed


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def parse_args(argv, workloads):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None, workloads=WORKLOADS) -> int:
    args = parse_args(argv, workloads)
    if not (SRC / "steppursuit" / "__init__.py").is_file():
        print(f"error: no steppursuit sources under {SRC}", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    tmp_root = ROOT / ".bench_tmp"
    tmp_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=tmp_root))
    try:
        workload = workloads[args.workload]
        try:
            cli, setup_s = set_up(workload, args.workload, args.seed, workdir)
        except (ImportError, RuntimeError) as e:
            print(f"error: set-up failed: {e}", file=sys.stderr)
            return 1
        op = workload.prepare(args.workload, args.seed, workdir)
        times, layers, missing, attempted, failed = timed_loop(
            op, cli, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            tmp_root.rmdir()  # only when no other run is using it
    if args.trace:
        metrics = tracing.layer_metrics(layers, missing)
        metrics["trace.overhead_s"] = metric(
            statistics.median(times[True]) - statistics.median(times[False]), "s")
    else:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "op_s": metric(statistics.median(times[False]), "s"),
            "peak_rss_mb": metric(peak_mb, "MB"),
            "setup_s": metric(setup_s, "s"),
        }
    print(f"{args.workload}: {attempted} ops, {failed} failed, op seconds: "
          + " ".join(f"{t:.4f}" for t in times[False] + times[True]), file=sys.stderr)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
