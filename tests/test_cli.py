import csv
import hashlib
import json
import math
import os
import stat
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from steppursuit import PursuitConfig, run_pursuit
from steppursuit import cli
from steppursuit.cli import main, read_csv_column, report_to_json


def write_csv(path, rows, header=None):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        if header:
            w.writerow(header)
        w.writerows(rows)


def test_read_csv_column_by_index_and_name(tmp_path):
    p = tmp_path / "data.csv"
    write_csv(p, [[1, 10.5], [2, -3.25]], header=["t", "value"])
    assert read_csv_column(str(p), "value").tolist() == [10.5, -3.25]
    assert read_csv_column(str(p), "1").tolist() == [10.5, -3.25]
    assert read_csv_column(str(p), "0").tolist() == [1.0, 2.0]
    # a UTF-8 byte-order mark (Excel writes one) is not part of the header
    p.write_bytes(b"\xef\xbb\xbfvalue,t\r\n10.5,1\r\n-3.25,2\r\n")
    assert read_csv_column(str(p), "value").tolist() == [10.5, -3.25]


def test_read_csv_headerless(tmp_path):
    p = tmp_path / "plain.csv"
    write_csv(p, [[4.0], [5.0], [6.0]])
    assert read_csv_column(str(p), "0").tolist() == [4.0, 5.0, 6.0]
    # nor does it turn a headerless first row into a header
    p.write_bytes(b"\xef\xbb\xbf1.5\n2.5\n3.5\n")
    assert read_csv_column(str(p), "0").tolist() == [1.5, 2.5, 3.5]


def test_read_csv_errors(tmp_path):
    p = tmp_path / "bad.csv"
    write_csv(p, [["x"], ["1.0"], ["oops"]])
    with pytest.raises(ValueError, match="row 3: not a number"):
        read_csv_column(str(p), "0")
    # row numbers are file lines, blank lines included
    p.write_text("t,value\n1,1.0\n\n\n2,oops\n")
    with pytest.raises(ValueError, match="row 5: not a number: 'oops'"):
        read_csv_column(str(p), "value")
    write_csv(p, [["a", "b"], ["1", "2"]])
    with pytest.raises(ValueError, match="not found"):
        read_csv_column(str(p), "missing")
    p.write_bytes(b"\xff\xfe1.0\n")  # not UTF-8
    with pytest.raises(ValueError, match="can't decode"):
        read_csv_column(str(p), "0")
    # a bad byte past the first decoded chunk fails while the cells are
    # parsed; it is still a decode error, not a bad cell
    p.write_bytes(b"value\n" + b"1.0\n" * 5_000 + b"\xff\n")
    with pytest.raises(UnicodeDecodeError, match="can't decode"):
        read_csv_column(str(p), "value")
    p.write_text("t,value\n1,2.0\n2\n")
    with pytest.raises(ValueError, match="row 3: missing column 1"):
        read_csv_column(str(p), "value")
    p.write_text('value\n"' + "1" * 200_000 + '"\n')  # past the csv field limit
    with pytest.raises(ValueError, match="row 2: field larger than field limit"):
        read_csv_column(str(p), "value")
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(ValueError, match="empty"):
        read_csv_column(str(empty), "0")


def test_read_csv_leading_blank_lines(tmp_path):
    # blank lines before the header, or before a headerless first row, are
    # skipped, and error messages still cite the file line
    p = tmp_path / "blank.csv"
    p.write_text("\n\nt,value\n1,1.5\n\n2,2.5\n")
    assert read_csv_column(str(p), "value").tolist() == [1.5, 2.5]
    p.write_text("\n\n\n4.0\n5.0\n")
    assert read_csv_column(str(p), "0").tolist() == [4.0, 5.0]
    p.write_text("\r\n\r\nvalue\r\n1.0\r\n\r\noops\r\n")
    with pytest.raises(ValueError, match="row 6: not a number: 'oops'"):
        read_csv_column(str(p), "value")
    p.write_text("\n\n1.0\n2.0\nx\n")
    with pytest.raises(ValueError, match="row 5: not a number: 'x'"):
        read_csv_column(str(p), "0")


def _run_cli(*argv, stdin=None):
    """Run the CLI in a new process on this checkout's source."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "steppursuit", *argv], input=stdin, env=env,
                          capture_output=True, text=True, timeout=300)


def test_read_csv_from_a_pipe(tmp_path):
    # a pipe can be read once: no row is lost to the header sniff, and an
    # error still cites the file line
    values = [i + 0.5 for i in range(3_000)]  # past one read buffer
    rows = "".join(f"{v}\n" for v in values)
    out = tmp_path / "r.json"
    run = _run_cli("approx", "/dev/stdin", "--max-iter", "1", "--out", str(out),
                   stdin=f"\nvalue\n{rows}")
    assert (run.returncode, run.stderr) == (0, "")
    report = json.loads(out.read_text())
    back = np.add(report["residual"], report["reconstruction"])
    assert back.shape == (3_000,) and np.max(np.abs(back - values)) < 1e-9
    run = _run_cli("approx", "/dev/stdin", stdin=f"value\n{rows}x\n")
    assert (run.returncode, run.stderr) == (2, "error: row 3002: not a number: 'x'\n")


def test_header_only_file_is_empty_input(tmp_path):
    # exit 2 with one line on stderr: no warning from the parser beside it
    p = tmp_path / "header.csv"
    p.write_text("\nt,value\n\n")
    run = _run_cli("approx", str(p))
    assert (run.returncode, run.stdout, run.stderr) == (2, "", "error: empty input\n")


def _bits_to_float(bits: int) -> float:
    return float(np.array([bits], dtype=np.uint64).view(np.float64)[0])


number_cells = st.one_of(
    st.floats().map(repr),
    st.integers(0, 2**64 - 1).map(_bits_to_float).map(repr),  # subnormals and nan too
    st.from_regex(r"[+-]?[0-9]{0,40}\.?[0-9]{1,40}([eE][+-]?[0-9]{1,3})?", fullmatch=True),
    st.sampled_from(["-0.0", "+1.5", ".5", "5.", "1e309", "-1e-400", "4.9e-324",
                     "2.2250738585072011e-308", "inf", "-Infinity", "NaN"]),
)


@settings(max_examples=200, deadline=None)
@given(
    cells=st.lists(
        st.tuples(st.sampled_from(["", " ", "\t "]), number_cells, st.sampled_from(["", " "]),
                  st.booleans()),
        min_size=1, max_size=30,
    ),
    header=st.booleans(),
    newline=st.sampled_from(["\n", "\r\n"]),
    bom=st.booleans(),
)
@example(cells=[("", "1e-5", "", False)], header=False, newline="\n", bom=False)
def test_read_csv_column_parses_as_float_does(tmp_path_factory, cells, header, newline, bom):
    # each cell parses to the bits float() gives it, quoted or not, with
    # surrounding whitespace, CRLF line ends and a byte-order mark
    texts = [lead + cell + trail for lead, cell, trail, _ in cells]
    rows = [f'{i},"{t}"' if quoted else f"{i},{t}"
            for i, (t, (*_, quoted)) in enumerate(zip(texts, cells))]
    lines = (["t,value"] if header else []) + rows
    p = tmp_path_factory.mktemp("prop") / "cells.csv"
    p.write_bytes((b"\xef\xbb\xbf" if bom else b"") + newline.join(lines + [""]).encode())
    got = read_csv_column(str(p), "value" if header else "1")
    want = np.array([float(t) for t in texts])
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("cell", ["1_000", "١٢"])  # "١٢": Arabic-Indic digits
def test_cells_float_takes_but_the_reader_refuses_exit_2(tmp_path, capsys, cell):
    # float() takes underscores and non-ASCII digits; the reader does not
    p = tmp_path / "declared.csv"
    p.write_text(f"value\n1.0\n\n{cell}\n", encoding="utf-8")
    assert main(["approx", str(p)]) == 2
    assert capsys.readouterr().err == f"error: row 4: not a number: {cell!r}\n"


def test_fields_past_the_csv_limit_parse(tmp_path):
    # the reader has no field-size limit: a finite 200,000-character cell,
    # and an oversized cell in a column that is not read, both parse
    p = tmp_path / "long.csv"
    p.write_text("note,value\nx,0." + "0" * 200_000 + "5\n" + "y" * 200_000 + ",2.5\n")
    assert read_csv_column(str(p), "value").tolist() == [0.0, 2.5]


# test_approx_plateau's report, less its "timing_seconds" line
PLATEAU_REPORT = """{
  "input": %s,
  "config": {
    "max_iterations": 5,
    "residual_epsilon": 1e-12,
    "coefficient_epsilon": 0.0,
    "pre_shift": null
  },
  "shift": 0.0,
  "terms": [
    {
      "iteration": 0,
      "start": 2,
      "length": 3,
      "coefficient": 5.196152422706632
    }
  ],
  "residual_norms": [
    5.196152422706632,
    0.0
  ],
  "residual": [
    0.0,
    0.0,
    0.0,
    0.0,
    0.0
  ],
  "reconstruction": [
    0.0,
    3.0000000000000004,
    3.0000000000000004,
    3.0000000000000004,
    0.0
  ],
  "breakpoints": [
    1,
    4
  ],
}
"""


def test_approx_plateau(tmp_path, capsys):
    p = tmp_path / "block.csv"
    write_csv(p, [[0.0], [3.0], [3.0], [3.0], [0.0]])
    out = tmp_path / "report.json"
    plot = tmp_path / "plot.csv"
    code = main(
        [
            "approx",
            str(p),
            "--column",
            "0",
            "--max-iter",
            "5",
            "--residual-eps",
            "1e-12",
            "--out",
            str(out),
            "--plot-out",
            str(plot),
        ]
    )
    assert code == 0
    text = out.read_text()
    # the report layout: key order, indent, numbering and float repr
    timed = [line for line in text.splitlines(keepends=True) if '"timing_seconds": ' in line]
    assert len(timed) == 1
    assert text.replace(timed[0], "") == PLATEAU_REPORT % json.dumps(str(p))
    rep = json.loads(text)
    assert len(rep["terms"]) == 1
    t = rep["terms"][0]
    assert (t["start"], t["length"]) == (2, 3)
    assert t["coefficient"] == pytest.approx(3 * math.sqrt(3), rel=1e-15)
    assert rep["residual_norms"][-1] == 0.0
    assert rep["breakpoints"] == [1, 4]
    assert max(abs(x) for x in rep["residual"]) == 0.0
    with open(plot, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "value", "reconstruction"]
    assert [int(r[0]) for r in rows[1:]] == [1, 2, 3, 4, 5]
    assert [float(r[1]) for r in rows[1:]] == [0.0, 3.0, 3.0, 3.0, 0.0]
    assert [float(r[2]) for r in rows[1:]] == rep["reconstruction"]


def test_approx_shift_round_trip(tmp_path):
    p = tmp_path / "vals.csv"
    rng = np.random.default_rng(0)
    vals = rng.uniform(-1, 1, 40)
    write_csv(p, [[v] for v in vals])
    out = tmp_path / "rep.json"
    assert (
        main(["approx", str(p), "--column", "0", "--shift", "10", "--out", str(out)])
        == 0
    )
    rep = json.loads(out.read_text())
    assert rep["shift"] == 10.0
    back = np.asarray(rep["reconstruction"]) + np.asarray(rep["residual"])
    assert np.max(np.abs(back - vals)) <= 1e-10


def test_approx_missing_file(tmp_path, capsys):
    code = main(["approx", str(tmp_path / "nope.csv"), "--column", "0"])
    assert code == 2
    assert "nope.csv" in capsys.readouterr().err


def test_approx_overflowing_sums(tmp_path, capsys):
    # finite values whose window sums overflow are an input error, not inf
    p = tmp_path / "big.csv"
    write_csv(p, [[1e308]] * 10)
    assert main(["approx", str(p), "--column", "0"]) == 2
    captured = capsys.readouterr()
    assert "error: window sums overflow" in captured.err
    assert captured.out == ""


def test_approx_overflowing_squares(tmp_path, capsys):
    # window sums are finite but the squared norm is not: an input error, not inf
    p = tmp_path / "huge.csv"
    write_csv(p, [[1e200], [1e200], [-1e200]])
    assert main(["approx", str(p), "--column", "0"]) == 2
    captured = capsys.readouterr()
    assert "error: squared values overflow" in captured.err
    assert captured.out == ""


def test_approx_report_does_not_depend_on_the_blas_thread_count(tmp_path):
    # at 20k values a threaded BLAS would split a dot product across threads
    p = tmp_path / "noise.csv"
    write_csv(p, ([v] for v in np.random.default_rng(0).standard_normal(20_000).tolist()),
              header=["value"])
    src = str(Path(__file__).resolve().parent.parent / "src")
    reports = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        out = tmp_path / f"r{threads}.json"
        subprocess.run([sys.executable, "-m", "steppursuit", "approx", str(p), "--max-iter", "10",
                        "--out", str(out)], env=env, check=True, timeout=300)
        text = out.read_text()
        reports.append([line for line in text.splitlines() if '"timing_seconds": ' not in line])
    assert reports[0] == reports[1]


def test_verify_failure_exits_1(capsys):
    # grid step 0.3 misses scale 1, so lemma1's grid max falls short of max |a_j|
    code = main(["verify", "lemma1", "--grid-step", "0.3", "--trials", "3"])
    assert code == 1
    captured = capsys.readouterr()
    assert "FAIL lemma1" in captured.err
    assert json.loads(captured.out)["passed"] is False


@pytest.mark.parametrize("argv", [["theorem2", "--grid-step", "100"], ["lemma1", "--grid-step", "2"]])
def test_verify_rejects_grid_step_past_the_range(capsys, argv):
    # no scale grid point fits below the swept range's end (N + 1 for
    # theorem2, 1 for lemma1): an input error, not an empty sweep or a FAIL
    # on scales outside the lemma
    assert main(["verify", *argv, "--trials", "2"]) == 2
    captured = capsys.readouterr()
    assert "error: grid step" in captured.err and "larger than the swept range" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv",
    [
        # --n 1 keeps the real scale and centre grids at 2M points each; the
        # 2M x 2M window array is refused on the request
        ["verify", "theorem2", "--grid-step", "1e-6", "--n", "1"],
        ["verify", "theorem1", "--xi-step", "1e-12"],
        ["simulate", "normal-std", "--T", "10000000000000"],
    ],
)
def test_refused_allocation_is_an_input_error(capsys, argv):
    # exit 1 is reserved for a failed verification, so an impossible
    # allocation exits 2 with an error line and no traceback
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err
    assert captured.out == ""


def test_oversize_grid_is_refused_before_the_sweep(capsys):
    # 2M scales by 2M centres: more windows than the engine sweeps, refused
    # with exit 2 before the first block rather than run for hours
    assert main(["verify", "theorem2", "--grid-step", "1e-6", "--n", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: a grid of ") and "too large to sweep" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv",
    [["theorem2", "--grid-step", "5e-324"], ["theorem1", "--xi-step", "1e-309"]],
)
def test_tiny_step_is_an_input_error(capsys, argv):
    # the grid's point count overflows to inf: exit 2 with an error line,
    # not an OverflowError traceback under exit 1
    assert main(["verify", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: grid step") and "too small" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("xi_step", ["0.8", "0.3"])
def test_lemma1_passes_at_xi_steps_that_do_not_divide_2(capsys, xi_step):
    # the lemma's max sits at xi = 0, so a frequency grid that skipped 0
    # would fail it falsely at these steps
    assert main(["verify", "lemma1", "--trials", "3", "--xi-step", xi_step]) == 0
    assert json.loads(capsys.readouterr().out)["passed"] is True


@pytest.mark.parametrize(
    "argv",
    [
        ["approx", "{csv}", "--column", "0"],
        ["verify", "remark", "--trials", "2"],
    ],
)
def test_unwritable_output_is_an_input_error(tmp_path, capsys, argv):
    p = tmp_path / "vals.csv"
    write_csv(p, [[1.0], [2.0]])
    argv = [a.format(csv=p) for a in argv]
    out = tmp_path / "missing" / "r.json"
    assert main(argv + ["--out", str(out)]) == 2
    assert f"error: cannot write {out}" in capsys.readouterr().err
    assert not (tmp_path / "missing").exists()


@pytest.mark.parametrize("report_out", [[], ["--out", "-"]])
def test_plot_out_to_stdout_needs_a_report_path(tmp_path, capsys, report_out):
    # the report and the CSV would share one stream: refused before the
    # input is read, so a missing input is not what fails
    p = tmp_path / "vals.csv"
    write_csv(p, [[0.5], [2.0], [2.0]])
    for src in (p, tmp_path / "missing.csv"):
        assert main(["approx", str(src), "--column", "0", "--plot-out", "-", *report_out]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            "error: the report and --plot-out - would both go to stdout; give --out a path\n"
        )
        assert captured.out == ""
    # with the report in a file, the CSV alone goes to stdout
    out = tmp_path / "rep.json"
    assert main(["approx", str(p), "--column", "0", "--out", str(out), "--plot-out", "-"]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert rows[0] == "t,value,reconstruction" and len(rows) == 4
    rec = json.loads(out.read_text())["reconstruction"]
    assert rec == [float(r.split(",")[2]) for r in rows[1:]]


def test_report_json_round_trip(tmp_path):
    p = tmp_path / "vals.csv"
    write_csv(p, [[x] for x in [0.3, -1.7, 2.2, 2.2, 0.1]])
    out = tmp_path / "rep.json"
    main(["approx", str(p), "--column", "0", "--max-iter", "4", "--out", str(out)])
    text = out.read_text()
    rep = json.loads(text)
    # floats survive the round trip bit for bit
    assert report_to_json(rep) == text
    exp = run_pursuit(read_csv_column(str(p), "0"), PursuitConfig(max_iterations=4))
    assert len(exp.terms) > 1
    assert [t["iteration"] for t in rep["terms"]] == list(range(len(exp.terms)))
    assert [t["coefficient"] for t in rep["terms"]] == [t.coefficient for t in exp.terms]
    assert rep["residual_norms"] == list(exp.norm_history)
    assert rep["residual"] == exp.residual.tolist()


@pytest.mark.parametrize(
    "argv",
    [
        ["approx", "{sim}", "--max-iter", "10"],
        ["approx", "{sim}", "--max-iter", "3", "--shift", "10"],
        ["compare", "{sim}", "--k", "3"],
        ["verify", "remark", "--trials", "2"],
        ["verify", "energy", "--trials", "2"],
        ["verify", "theorem2", "--trials", "2", "--n", "3", "--grid-step", "0.25"],
    ],
)
def test_report_writer_matches_json_on_real_reports(tmp_path, argv):
    sim = tmp_path / "sim.csv"
    main(["simulate", "sim1-3state", "--T", "300", "--seed", "2", "--out", str(sim)])
    out = tmp_path / "rep.json"
    main([a.format(sim=sim) for a in argv] + ["--out", str(out)])
    text = out.read_text()
    assert text == json.dumps(json.loads(text), indent=2) + "\n"


@pytest.mark.parametrize(
    "report",
    [
        {},
        {"terms": [], "breakpoints": [], "pre_shift": None},
        {"one": [1.5], "one_int": [7]},
        {"bools": [True, 1], "only_bools": [False]},
        {"mixed": [1, 2.5, -3, 0]},
        {"edges": [-0.0, 5e-324, 1e16, 1e-05, 1.7976931348623157e308, -2**70]},
        {"inf": [1.0, math.inf], "ninf": [-math.inf], "nan": [2.0, math.nan]},
        {"scalar_inf": math.inf, "scalar_nan": math.nan},
        {"caf\u00e9": "\u00fcber \u221e\n\"q\"", "nested": {"a": [1.0, {"b": []}]}},
        {"tuple": (1, 2.0), "nested_list": [[1.0], [2, 3]], "strings": ["a", "b"]},
        # longer than one chunk of reprs
        {"long": [i / 7 for i in range(10_000)], "ints": list(range(9_000))},
        {"inf_last": [0.5] * 5_000 + [math.inf]},
    ],
)
def test_report_writer_matches_json_on_edge_cases(report):
    assert report_to_json(report) == json.dumps(report, indent=2) + "\n"


_scalars = (
    st.floats(allow_nan=True, allow_infinity=True)
    | st.integers(-(2**70), 2**70)
    | st.booleans()
    | st.none()
    | st.text(max_size=5)
)


@settings(max_examples=300, deadline=None)
@given(
    st.dictionaries(
        st.text(max_size=5),
        st.lists(st.floats(), max_size=6)
        | st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=6)
        | st.lists(st.integers(-(2**70), 2**70), max_size=6)
        | st.lists(_scalars, max_size=6)
        | _scalars,
        max_size=6,
    )
)
def test_report_writer_matches_json_property(report):
    assert report_to_json(report) == json.dumps(report, indent=2) + "\n"


# values of runs: signed zeros, the smallest subnormal, the largest finite
# float, and the non-finite values json writes as Infinity and NaN
_run_values = st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
     math.inf, -math.inf, math.nan]
) | st.floats()


# int64 values of runs: zero, one and the extremes
_int_run_values = st.sampled_from(
    [0, 1, -1, 2**63 - 1, -(2**63 - 1), -(2**63)]
) | st.integers(-(2**63), 2**63 - 1)
_run_lengths = st.integers(1, 3) | st.integers(4_000, 4_200)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.tuples(_run_values, _run_lengths), max_size=4),
    st.lists(st.tuples(_int_run_values, _run_lengths), max_size=4),
)
# runs across the 4,096 boundary
@example([(1.5, 4_095), (1.5, 2), (2.5, 1)], [(2**63 - 1, 4_095), (2**63 - 1, 2), (0, 1)])
@example([(1.0, 2), (-0.0, 1), (0.0, 2), (-0.0, 1)], [(0, 2), (-(2**63 - 1), 1), (0, 3)])
@example([(2.2250738585072014e-308, 3), (1e-310, 1), (1.7976931348623157e308, 2)], [])
# non-finite past the first chunk
@example([(1.0, 4_096), (math.nan, 1)], [(-1, 4_096), (-(2**63), 1)])
def test_report_writer_matches_json_on_float_arrays(runs, int_runs):
    a = np.repeat(np.array([v for v, _ in runs], dtype=float), [n for _, n in runs])
    i = np.repeat(np.array([v for v, _ in int_runs], dtype=np.int64), [n for _, n in int_runs])
    for arr in (a, a[::3], i, i[::3], i[1::2]):
        want = json.dumps({"a": arr.tolist(), "b": 1}, indent=2) + "\n"
        assert report_to_json({"a": arr, "b": 1}) == want


@pytest.mark.parametrize(
    "arr",
    [np.array([]), np.arange(5), np.arange(0), np.zeros((2, 2)), np.float32([0.1, 0.1]),
     np.array([True, False]), np.array(2.5)],
)
def test_report_writer_writes_other_arrays_as_lists(arr):
    assert report_to_json({"a": arr}) == json.dumps({"a": arr.tolist()}, indent=2) + "\n"


def test_report_phase_memory_stays_small(tmp_path):
    # at N = 200k the two arrays' text is about 8 MB; the streamed writer
    # formats a few thousand elements at a time
    rng = np.random.default_rng(0)
    config = PursuitConfig(max_iterations=10)
    expansion = run_pursuit(rng.standard_normal(200_000), config)
    out = tmp_path / "r.json"
    tracemalloc.start()
    try:
        report = cli.expansion_report("in.csv", config, expansion, 0.0)
        cli._write_text(str(out), cli._report_pieces(report))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6e6
    assert out.read_text() == json.dumps(json.loads(out.read_text()), indent=2) + "\n"


def test_every_writer_gets_pieces_not_a_string(tmp_path, monkeypatch):
    # writelines on a bare str would write it one character at a time
    seen = []
    write = cli._write_text

    def spy(path, pieces):
        seen.append(type(pieces))
        write(path, pieces)

    monkeypatch.setattr(cli, "_write_text", spy)
    sim = tmp_path / "sim.csv"
    for argv in (
        ["simulate", "sim1-3state", "--T", "50", "--out", str(sim)],
        ["simulate", "normal-std", "--T", "5", "--out", str(tmp_path / "iid.csv")],
        ["approx", str(sim), "--out", str(tmp_path / "a.json"),
         "--plot-out", str(tmp_path / "p.csv")],
        ["compare", str(sim), "--out", str(tmp_path / "c.json")],
        ["verify", "remark", "--trials", "2", "--out", str(tmp_path / "v.json")],
    ):
        assert main(argv) == 0
    assert len(seen) == 6 and not any(issubclass(t, str) for t in seen)


def test_simulate_csv(tmp_path):
    out = tmp_path / "sim.csv"
    code = main(
        ["simulate", "sim1-3state", "--T", "250", "--seed", "1", "--out", str(out)]
    )
    assert code == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "value", "state", "true_mean"]
    assert len(rows) == 251
    states = {int(r[2]) for r in rows[1:]}
    assert states <= {1, 2, 3}
    assert [int(r[0]) for r in rows[1:]] == list(range(1, 251))
    # same seed, same file
    out2 = tmp_path / "sim2.csv"
    main(["simulate", "sim1-3state", "--T", "250", "--seed", "1", "--out", str(out2)])
    assert out.read_text() == out2.read_text()


def test_simulate_rejects_bad_t(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "sim1-3state", "--T", "0"])
    assert exc.value.code == 2


def test_simulate_iid_has_empty_state_column(tmp_path):
    out = tmp_path / "iid.csv"
    main(["simulate", "normal-std", "--T", "10", "--seed", "0", "--out", str(out)])
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert all(r[2] == "" for r in rows[1:])


# sha256 of `simulate <preset> --T 64 --seed 0`, recorded before the presets
# became plain parameters; a refactor that moves a random draw changes them
PRESET_DIGESTS = {
    "sim1-3state": "9a655949f1db984eccf3bd85aade6a6c98ba347148b102353d6d240d73f7085c",
    "sim2-4state": "370df6c8d22156055a038ad251ee623d625314a9f0459945f00eb8e9fd521a00",
    "normal-mean2": "e9fd3cda8f5c65e4675fb7841606838280995e96f70360bebf4292e80278258c",
    "normal-std": "3db56ad6ec97f573014b141d069ccd644eae7d768cf4f9aff5fa83b286b51ec9",
    "ar2": "c9a27a1a19d1744e37a0c74cc5e4d50ef6ac4234178525260278ad489eaae996",
    "kmeans-2state": "f97a31c3a2b279c793902535d68f3d89b7098b374465ae4c716caa400b789c3e",
}


@pytest.mark.parametrize("preset", sorted(PRESET_DIGESTS))
def test_simulate_preset_draws_are_pinned(tmp_path, preset):
    out = tmp_path / "sim.csv"
    assert main(["simulate", preset, "--T", "64", "--seed", "0", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == PRESET_DIGESTS[preset]


# sha256 of the CSV bytes at T = 5000, past one 4,096-row chunk: the presets
# with a state column and those whose state cells are empty, and the
# `--plot-out` pairs, whose reconstruction is a few long runs
CSV_DIGESTS = {
    "sim1-3state": "fcd51e5733bcb395c86b680af4a6a7a6efe9a9cf574c9db91e95601869a9b60c",
    "sim2-4state": "8cdc2c2c12c4656d5feabe5d9f4e8b678a307ef036ef9acda605b25e5c692e9f",
    "normal-mean2": "9391d36d4d73660ba813cfb80c65d4e3ccb6e9163c486a2c8e423a1656dc8152",
    "normal-std": "961c8cf6789a929d53d6ac969bb2e67475b403d2ea11f46368b76c0184f4e4aa",
    "ar2": "c3f56f139b318ea3efea4aa2a587fbc737ac805857f89aa5bc7893c4a3ea22f5",
    "kmeans-2state": "ea6abb913045a763271617e1b042e3455b6a161563ee0cc2a43a4aadb82382a1",
    "approx --plot-out": "86829d8309ab8c18d4c3e8d50168aae602ed280087866fa95f11042081ddad2c",
}


def test_csv_bytes_are_pinned(tmp_path):
    digests = {}
    for preset in PRESET_DIGESTS:
        out = tmp_path / f"{preset}.csv"
        assert main(["simulate", preset, "--T", "5000", "--seed", "4", "--out", str(out)]) == 0
        digests[preset] = hashlib.sha256(out.read_bytes()).hexdigest()
    plot = tmp_path / "plot.csv"
    argv = ["approx", str(tmp_path / "sim1-3state.csv"), "--max-iter", "10", "--shift", "10",
            "--out", str(tmp_path / "r.json"), "--plot-out", str(plot)]
    assert main(argv) == 0
    digests["approx --plot-out"] = hashlib.sha256(plot.read_bytes()).hexdigest()
    assert digests == CSV_DIGESTS


def test_compare_pipeline(tmp_path):
    sim = tmp_path / "sim.csv"
    main(["simulate", "kmeans-2state", "--T", "400", "--seed", "3", "--out", str(sim)])
    out = tmp_path / "cmp.json"
    code = main(["compare", str(sim), "--k", "2", "--out", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())
    for key in ("pursuit_mse", "raw_mse", "kmeans_mse", "kmeans_centers", "kmeans_assignments"):
        assert key in rep
    assert len(rep["kmeans_centers"]) == 2
    assert len(rep["kmeans_assignments"]) == 400
    assert rep["pursuit_mse"] < rep["raw_mse"]
    # the k-means baseline is exact and takes no seed
    with pytest.raises(SystemExit) as exc:
        main(["compare", str(sim), "--seed", "0", "--out", str(out)])
    assert exc.value.code == 2


def test_compare_overflowing_squares(tmp_path, capsys):
    # finite values and truths whose squared differences overflow: an input
    # error and no report, not a report holding Infinity
    p = tmp_path / "far.csv"
    write_csv(p, [[1, -1e308], [2, 1e308], [3, 0]], header=["value", "true_mean"])
    out = tmp_path / "cmp.json"
    assert main(["compare", str(p), "--out", str(out)]) == 2
    assert "error: squared values overflow" in capsys.readouterr().err
    assert not out.exists()


def test_compare_requires_true_mean(tmp_path):
    p = tmp_path / "novals.csv"
    write_csv(p, [[1.0], [2.0]], header=["value"])
    assert main(["compare", str(p)]) == 2


def test_verify_exit_codes(tmp_path, capsys):
    out = tmp_path / "verify.json"
    code = main(
        ["verify", "remark", "--trials", "100", "--seed", "7", "--out", str(out)]
    )
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["passed"] is True and rep["trials"] == 100 and rep["seed"] == 7
    assert "PASS" in capsys.readouterr().err


def test_verify_accepts_n_flag(tmp_path):
    out = tmp_path / "verify.json"
    code = main(
        [
            "verify",
            "theorem2",
            "--trials",
            "3",
            "--seed",
            "7",
            "--n",
            "6",
            "--out",
            str(out),
        ]
    )
    assert code == 0


@pytest.mark.parametrize(
    "flags",
    [
        ["--trials", "0"],
        ["--trials", "-1"],
        ["--n", "0"],
        ["--grid-step", "0"],
        ["--grid-step", "-0.5"],
        ["--grid-step", "nan"],
        ["--grid-step", "inf"],
        ["--xi-step", "0"],
        ["--xi-step", "nan"],
    ],
)
def test_verify_rejects_bad_numeric_options(capsys, flags):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "theorem1", *flags])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"error: {flags[0]} must be" in err and "usage:" in err
    assert "Traceback" not in err


def test_verify_unknown_suite():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "theorem9"])
    assert exc.value.code == 2


def test_atomic_write_leaves_no_temp_files(tmp_path):
    p = tmp_path / "vals.csv"
    write_csv(p, [[1.0], [2.0]])
    out = tmp_path / "rep.json"
    main(["approx", str(p), "--column", "0", "--out", str(out)])
    assert set(os.listdir(tmp_path)) == {"vals.csv", "rep.json"}


def test_write_through_symlink_keeps_the_link(tmp_path):
    p = tmp_path / "vals.csv"
    write_csv(p, [[1.0], [2.0]])
    real = tmp_path / "real.json"
    real.write_text("old\n")
    real.chmod(0o600)
    link = tmp_path / "link.json"
    link.symlink_to("real.json")
    old_umask = os.umask(0o027)
    try:
        assert main(["approx", str(p), "--column", "0", "--out", str(link)]) == 0
    finally:
        os.umask(old_umask)
    assert link.is_symlink() and os.readlink(link) == "real.json"
    assert json.loads(real.read_text())["input"] == str(p)
    assert stat.S_IMODE(real.stat().st_mode) == 0o640
    assert set(os.listdir(tmp_path)) == {"vals.csv", "real.json", "link.json"}


def test_write_to_dangling_symlink_creates_its_target(tmp_path):
    p = tmp_path / "vals.csv"
    write_csv(p, [[1.0], [2.0]])
    link = tmp_path / "link.json"
    link.symlink_to("real.json")
    assert main(["approx", str(p), "--column", "0", "--out", str(link)]) == 0
    assert link.is_symlink()
    assert json.loads((tmp_path / "real.json").read_text())["input"] == str(p)


def test_write_to_a_fifo_writes_in_place(tmp_path):
    p = tmp_path / "vals.csv"
    write_csv(p, [[1.0], [2.0]])
    fifo = tmp_path / "out.fifo"
    os.mkfifo(fifo)
    # a non-blocking reader lets the writer open the FIFO at once; the small
    # report fits in the pipe buffer
    fd = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        assert main(["approx", str(p), "--column", "0", "--out", str(fifo)]) == 0
        text = os.read(fd, 1 << 16).decode()
    finally:
        os.close(fd)
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
    assert json.loads(text)["input"] == str(p)
    assert set(os.listdir(tmp_path)) == {"vals.csv", "out.fifo"}


def test_write_failing_midway_keeps_the_old_file(tmp_path):
    out = tmp_path / "r.json"
    out.write_bytes(b"old\n")

    def pieces():
        yield "x" * 100_000
        raise RuntimeError("midway")

    with pytest.raises(RuntimeError, match="midway"):
        cli._write_text(str(out), pieces())
    assert out.read_bytes() == b"old\n"
    assert os.listdir(tmp_path) == ["r.json"]


def test_write_to_a_directory_is_an_output_error(tmp_path, capsys):
    p = tmp_path / "vals.csv"
    write_csv(p, [[1.0], [2.0]])
    out = tmp_path / "dir"
    out.mkdir()
    assert main(["approx", str(p), "--column", "0", "--out", str(out)]) == 2
    assert f"error: cannot write {out}" in capsys.readouterr().err
    assert out.is_dir() and not os.listdir(out)
