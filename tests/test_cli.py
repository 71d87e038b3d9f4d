import csv
import json
import math
import os

import numpy as np
import pytest

from steppursuit import PursuitConfig, run_pursuit
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
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(ValueError, match="empty"):
        read_csv_column(str(empty), "0")


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


def test_compare_pipeline(tmp_path):
    sim = tmp_path / "sim.csv"
    main(["simulate", "kmeans-2state", "--T", "400", "--seed", "3", "--out", str(sim)])
    out = tmp_path / "cmp.json"
    code = main(["compare", str(sim), "--k", "2", "--seed", "0", "--out", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())
    for key in ("pursuit_mse", "raw_mse", "kmeans_mse", "kmeans_centers", "kmeans_assignments"):
        assert key in rep
    assert len(rep["kmeans_centers"]) == 2
    assert len(rep["kmeans_assignments"]) == 400
    assert rep["pursuit_mse"] < rep["raw_mse"]


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
