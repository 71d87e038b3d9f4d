"""Smoke test of the benchmark at tiny sizes: python3 -m pytest bench -q"""

import json
import shutil
import subprocess
import sys

import pytest

import run
import tracing

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
TINY = {name: w.warm_up() for name, w in run.WORKLOADS.items()}


def result(capsys, *argv):
    code = run.main([*argv, "--seconds", "0.1"], workloads=TINY)
    out = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(out[-1])


def test_workload_names_match_benchmark_json():
    assert sorted(run.WORKLOADS) == sorted(w["name"] for w in SPEC["workloads"])


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", sorted(TINY))
def test_prints_every_metric(capsys, workload, trace):
    code, res = result(capsys, "--workload", workload, "--seed", "3", "--trace", trace)
    assert code == 0
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 2
    spec = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        name: m["unit"] for name, m in res["metrics"].items()
    }
    assert all(isinstance(m["value"], (int, float)) for m in res["metrics"].values())


@pytest.fixture
def cli():
    sys.path.insert(0, str(run.SRC))
    try:
        yield run.import_cli()
    finally:
        sys.path.remove(str(run.SRC))


@pytest.fixture
def approx_op(tmp_path):
    return TINY["approx-noise"].prepare("approx-noise", 0, tmp_path)


def test_checks_catch_corrupted_report(cli, approx_op):
    _, problems, _ = approx_op(cli)
    assert problems == []
    good = json.loads(approx_op.out.read_text())
    golden = [[t["start"], t["length"], t["coefficient"]] for t in good["terms"]]
    assert run.check_approx(good, approx_op.values, golden) == []

    def corrupt(edit):
        report = json.loads(json.dumps(good))
        edit(report)
        return run.check_approx(report, approx_op.values, golden)

    assert corrupt(lambda r: r["terms"][0].update(coefficient=r["terms"][0]["coefficient"] * 1.001))
    assert corrupt(lambda r: r["residual"].__setitem__(5, r["residual"][5] + 1e-3))
    assert corrupt(lambda r: r["reconstruction"].__setitem__(0, r["reconstruction"][0] + 1e-3))
    assert corrupt(lambda r: r["residual_norms"].reverse())
    assert corrupt(lambda r: r["terms"][1].update(length=r["terms"][1]["length"] + 1))
    assert corrupt(lambda r: r["terms"].pop())
    assert run.check_approx(good, approx_op.values, [[1, 1, 1.0]] + golden[1:])
    assert run.check_verify({"suite": "lemma1", "passed": False}, "lemma1")
    assert run.check_verify({"suite": "lemma1", "passed": True}, "theorem1")


def test_corrupted_output_counts_as_failed(cli, approx_op, monkeypatch):
    build = cli.expansion_report

    def off_by_a_bit(*args):
        report = build(*args)
        report["terms"][0]["coefficient"] *= 1.001
        return report

    monkeypatch.setattr(cli, "expansion_report", off_by_a_bit)
    _, _, _, attempted, failed = run.timed_loop(approx_op, cli, 0.0, trace=False)
    assert failed == attempted == 3


def test_missing_binding_is_reported_absent(cli, approx_op, capsys):
    tracer = tracing.Tracer()
    gone = ("cli.ingest", "steppursuit.cli", "read_csv_column_renamed", None)
    installed = tracing.Installation(tracer, tracing.BINDINGS + (gone,))
    try:
        approx_op(cli, tracer)
    finally:
        installed.remove()
    assert installed.absent == ["steppursuit.cli.read_csv_column_renamed"]
    assert not hasattr(cli.read_csv_column, "__wrapped__")  # wrapper removed
    metrics = tracing.layer_metrics([tracing.aggregate(tracer.take(), 0)], installed.missing)
    assert {"cli.ingest_s", "cli.ingest_rows_per_s", "cli.report_s"}.isdisjoint(metrics)
    assert metrics["maximizer.scan_calls"]["value"] == 2
    assert "cli.ingest_s" in capsys.readouterr().err


def test_fails_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "approx-noise",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_nonzero_exit_counts_as_failed(cli, approx_op):
    approx_op.argv[1] = str(approx_op.out.with_name("missing.csv"))
    _, problems, _ = approx_op(cli)
    assert problems and "exited 2" in problems[0]
