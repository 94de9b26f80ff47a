"""Power-law fitting, table export, and the CLI.

The full six-point sweep lives in the acceptance module; here the sweep
driver is checked only through its preconditions and plumbing, and the
CLI through in-process main() calls on small instances.
"""

import csv
import importlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fracmp.cli
import fracmp.eigen
import fracmp.solve
from fracmp import (
    CSV_HEADER,
    ExportError,
    ScalingConstants,
    SolverError,
    SweepRecord,
    UsageError,
    export,
    fit_powerlaw,
    parse_config,
    read_gridfn,
    sweep,
    write_gridfn,
    build_grid,
)
from fracmp.cli import main

# the package exports the sweep function under the submodule's name
sweep_module = importlib.import_module("fracmp.sweep")

SMALL = """\
a = 0
b = 1
n = 32
s = 0.4
p = 2
q = 3
f0 = 1
V_const = 0.25
lambda = 0.5
eigen_tol = 1e-7
"""


def _write(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_fit_powerlaw_two_points():
    slope, _, _ = fit_powerlaw([(1.0, 1.0), (0.1, 10.0)])
    assert slope == pytest.approx(-1.0, rel=1e-12)


def test_fit_powerlaw_constant_data():
    slope, intercept, _ = fit_powerlaw([(1.0, 4.2), (0.1, 4.2), (0.01, 4.2)])
    assert slope == pytest.approx(0.0, abs=1e-12)
    assert intercept == pytest.approx(math.log(4.2), rel=1e-12)


def test_fit_powerlaw_exact_power_law():
    lam = np.geomspace(0.01, 1.0, 5)
    pairs = [(x, 3.0 * x ** -0.5) for x in lam]
    slope, intercept, r2 = fit_powerlaw(pairs)
    assert abs(slope - (-0.5)) < 1e-12
    assert abs(r2 - 1.0) < 1e-12
    assert intercept == pytest.approx(math.log(3.0), rel=1e-12)


def test_fit_powerlaw_rejects_bad_input():
    with pytest.raises(UsageError):
        fit_powerlaw([(1.0, 1.0)])
    with pytest.raises(UsageError):
        fit_powerlaw([(1.0, 1.0), (0.1, -2.0)])
    with pytest.raises(UsageError):
        fit_powerlaw([(1.0, 0.0), (0.1, 1.0)])
    with pytest.raises(UsageError):
        fit_powerlaw([(-1.0, 1.0), (0.1, 1.0)])


def _records():
    return [
        SweepRecord(lam=0.1, norm_W=12.345678901234567, norm_inf=3.2,
                    energy=-1.5e-3, residual=9.9e-7, positive=True,
                    distinct_count=2, in_window=True),
        SweepRecord(lam=0.8, norm_W=4.0, norm_inf=1.1, energy=2.25,
                    residual=3.3e-8, positive=False, distinct_count=1,
                    in_window=False),
    ]


def _csv_rows(path):
    """The data rows of an exported CSV table, as dicts of field text."""
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(ln for ln in fh if not ln.startswith("#")))


def test_export_csv_round_trip(tmp_path):
    path = str(tmp_path / "sweep.csv")
    export(_records(), "csv", path)
    lines = Path(path).read_text().splitlines()
    assert lines[0].startswith("# generated ")
    assert lines[1] == CSV_HEADER
    assert len(lines) == 4
    back = _csv_rows(path)
    assert len(back) == 2
    assert float(back[0]["lambda"]) == 0.1
    assert float(back[0]["norm_W"]) == 12.345678901234567  # 17 digits survive
    assert back[0]["positive"] == back[0]["in_window"] == "true"
    assert back[1]["positive"] == back[1]["in_window"] == "false"
    assert back[1]["distinct_count"] == "1"


def test_export_json_round_trip(tmp_path):
    path = str(tmp_path / "sweep.json")
    export(_records(), "json", path)
    body = json.loads(Path(path).read_text())
    assert "generated" in body and len(body["records"]) == 2
    back = body["records"]
    assert all(list(rec) == CSV_HEADER.split(",") for rec in back)
    assert back[0]["norm_W"] == 12.345678901234567
    assert back[0]["energy"] == -1.5e-3
    assert back[0]["positive"] is True and back[1]["in_window"] is False
    assert back[1]["distinct_count"] == 1


def test_export_empty_is_header_only(tmp_path):
    path = str(tmp_path / "empty.csv")
    export([], "csv", path)
    lines = [ln for ln in Path(path).read_text().splitlines() if not ln.startswith("#")]
    assert lines == [CSV_HEADER]
    assert _csv_rows(path) == []


def test_export_bad_directory(tmp_path):
    target = str(tmp_path / "nope" / "sweep.csv")
    with pytest.raises(ExportError) as err:
        export(_records(), "csv", target)
    assert err.value.path == target
    assert str(err.value).count(target) == 1


def test_export_bad_format(tmp_path):
    with pytest.raises(UsageError):
        export(_records(), "xml", str(tmp_path / "x.xml"))


def test_sweep_needs_enough_points(tmp_path):
    cfg = parse_config(_write(tmp_path, SMALL))
    with pytest.raises(UsageError, match=">= 4"):
        sweep(cfg)


def test_sweep_needs_a_decade(tmp_path):
    text = SMALL.replace(
        "lambda = 0.5",
        "lambda_start = 0.2\nlambda_stop = 0.8\nlambda_count = 6")
    cfg = parse_config(_write(tmp_path, text))
    with pytest.raises(UsageError, match="decade"):
        sweep(cfg)


def test_cli_version():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_cli_missing_config(tmp_path):
    assert main(["eigen", str(tmp_path / "absent.cfg")]) == 2


def test_cli_gate_violation_exits_2(tmp_path):
    path = _write(tmp_path, SMALL.replace("s = 0.4", "s = 0.6"))
    assert main(["eigen", path]) == 2


@pytest.mark.parametrize("line", ["eigen_tol = inf", "eigen_tol = nan",
                                  "solve_tol = inf", "mp_tol = nan",
                                  "f0 = inf", "V_const = nan"])
def test_cli_non_finite_value_exits_2(tmp_path, capsys, line):
    # eigen_tol = inf used to exit 0 with the hat start as the eigenpair
    key = line.split("=")[0].strip()
    kept = [ln for ln in SMALL.splitlines() if ln.split("=")[0].strip() != key]
    path = _write(tmp_path, "\n".join(kept + [line]) + "\n")
    assert main(["eigen", path, "--out", str(tmp_path / "out")]) == 2
    assert "%s must be finite" % key in capsys.readouterr().err


def _no_solver(monkeypatch):
    # a CLI check that must fail before any solve: every solver raises
    def solver(*args, **kwargs):
        raise AssertionError("solver called before the output checks")

    for name in ("first_eigenpair", "torsion_solve", "sweep"):
        monkeypatch.setattr("fracmp.cli.%s" % name, solver)
    for name in ("first_eigenpair", "mountain_pass"):
        monkeypatch.setattr(sweep_module, name, solver)


@pytest.mark.parametrize("command", ["eigen", "torsion", "solve", "sweep"])
def test_cli_out_naming_a_file_exits_2(tmp_path, capsys, monkeypatch, command):
    _no_solver(monkeypatch)
    taken = tmp_path / "taken"
    taken.write_text("")
    text = SMALL
    if command == "sweep":
        text = SMALL.replace("lambda = 0.5",
                             "lambda_start = 0.05\nlambda_stop = 0.8\nlambda_count = 4")
    assert main([command, _write(tmp_path, text), "--out", str(taken)]) == 2
    assert "cannot create output directory" in capsys.readouterr().err


@pytest.mark.parametrize("blocked, what", [("phi1.txt", "cannot write solution"),
                                            ("eigen_report.json", "cannot write report")])
def test_cli_unwritable_output_names_path_once(tmp_path, capsys, blocked, what):
    # a directory where the output file should go makes its open() fail
    out = tmp_path / "out"
    (out / blocked).mkdir(parents=True)
    assert main(["eigen", _write(tmp_path, SMALL), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert what in err and err.count(str(out / blocked)) == 1


def test_cli_solve_bad_ref_exits_2(tmp_path, capsys, monkeypatch):
    _no_solver(monkeypatch)
    path = _write(tmp_path, SMALL)
    out = str(tmp_path / "out")
    assert main(["solve", path, "--out", out, "--ref", str(tmp_path / "absent.txt")]) == 2
    assert "absent.txt" in capsys.readouterr().err
    ref = tmp_path / "ref.txt"
    write_gridfn(ref, np.zeros(16), build_grid(0.0, 1.0, 16))
    assert main(["solve", path, "--out", out, "--ref", str(ref)]) == 2
    assert "different grid" in capsys.readouterr().err


@pytest.mark.parametrize("n, p", [
    pytest.param(1000000, 2, id="1000000"), pytest.param(14000, 2, id="14000"),
    pytest.param(10 ** 200, 2, id="1e200"), pytest.param(16384, 2.5, id="16384-p2.5")])
def test_cli_n_over_memory_limit_exits_2(tmp_path, capsys, monkeypatch, n, p):
    # rejected while the config is read, before any grid or table exists;
    # the limit counts three n x n tables at every p (n <= 13377)
    monkeypatch.setattr("fracmp.cli.assemble", None)
    text = SMALL.replace("n = 32", "n = %d" % n).replace("p = 2", "p = %g" % p)
    path = _write(tmp_path, text.replace("s = 0.4", "s = 0.3"))
    assert main(["eigen", path, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "n = %d needs" % n in err and "3 n x n tables" in err and "GiB" in err


def test_cli_lambda_count_over_memory_limit_exits_2(tmp_path, capsys, monkeypatch):
    # rejected while the config is read, before any lambda grid exists
    _no_solver(monkeypatch)
    text = SMALL.replace("lambda = 0.5", "lambda_start = 0.05\nlambda_stop = 0.8\n"
                         "lambda_count = %d" % 10 ** 20)
    assert main(["sweep", _write(tmp_path, text), "--out", str(tmp_path / "out")]) == 2
    assert "lambda_count must be <=" in capsys.readouterr().err


@pytest.mark.parametrize("value", [0, -3])
@pytest.mark.parametrize("cap", ["eigen_iter_cap", "torsion_iter_cap",
                                 "solve_iter_cap", "mp_iter_cap"])
def test_cli_iteration_cap_below_one_exits_2(tmp_path, capsys, monkeypatch, cap, value):
    # the iteration caps are constants of the solvers, not config keys: a
    # config problem, found before any solve, whatever the value, 1 included
    _no_solver(monkeypatch)
    for v in (value, 1):
        path = _write(tmp_path, SMALL + "%s = %d\n" % (cap, v))
        assert main(["eigen", path, "--out", str(tmp_path / "out")]) == 2
        assert "unknown key %r" % cap in capsys.readouterr().err


@pytest.mark.parametrize("bad", ["config", "V_file", "ref"])
def test_cli_non_utf8_input_exits_2(tmp_path, capsys, monkeypatch, bad):
    _no_solver(monkeypatch)
    junk = tmp_path / "junk.txt"
    junk.write_bytes(b"\xff\xfe not UTF-8\n")
    cfg = _write(tmp_path, SMALL.replace("V_const = 0.25", "V_file = %s" % junk)
                 if bad == "V_file" else SMALL)
    argv = {"config": ["eigen", str(junk)], "V_file": ["eigen", cfg],
            "ref": ["solve", cfg, "--ref", str(junk)]}[bad]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 2
    assert str(junk) in capsys.readouterr().err


@pytest.mark.parametrize("line, message", [
    ("theta = 4.5", "error: deficit unbounded below"),  # HypothesisError: q + 1 = 4
    pytest.param("", "error: eigen solver stalled", id="eigen-cap-2"),  # SolverError
])
def test_cli_hypothesis_or_solver_failure_exits_1(tmp_path, capsys, monkeypatch, line,
                                                  message):
    # two eigen steps at n = 32 stall the eigen solve; theta fails before it
    monkeypatch.setattr(fracmp.eigen, "EIGEN_CAP_PER_NODE", 2 / 32)
    out = str(tmp_path / "out")
    assert main(["eigen", _write(tmp_path, SMALL + line + "\n"), "--out", out]) == 1
    assert capsys.readouterr().err.startswith(message)


def test_cli_eigen_writes_report(tmp_path, capsys):
    out = tmp_path / "out"
    path = _write(tmp_path, SMALL)
    assert main(["eigen", path, "--out", str(out)]) == 0
    report = json.loads((out / "eigen_report.json").read_text())
    assert report["lambda1"] > 0.0
    assert report["residual"] <= 1e-7
    values, meta = read_gridfn(out / "phi1.txt")
    assert meta["n"] == 32
    assert np.all(values >= 0.0)
    assert "lambda1" in capsys.readouterr().out


def test_cli_torsion_writes_report(tmp_path):
    out = tmp_path / "out"
    path = _write(tmp_path, SMALL)
    assert main(["torsion", path, "--out", str(out)]) == 0
    report = json.loads((out / "torsion_report.json").read_text())
    assert report["positive"] is True
    values, _ = read_gridfn(out / "torsion_u.txt")
    assert np.all(values > 0.0)


def test_cli_torsion_negative_potential_gates_on_lambda1(tmp_path, monkeypatch):
    # c_V > 0 needs lambda1 first, and torsion_solve gets it for its gate
    lams = []
    real_eig, real_tor = fracmp.cli.first_eigenpair, fracmp.cli.torsion_solve

    def eig(*args, **kwargs):
        pair = real_eig(*args, **kwargs)
        lams.append(pair.lambda1)
        return pair

    def tor(*args, lambda1=None, **kwargs):
        assert lambda1 == lams[-1]
        return real_tor(*args, lambda1=lambda1, **kwargs)

    monkeypatch.setattr("fracmp.cli.first_eigenpair", eig)
    monkeypatch.setattr("fracmp.cli.torsion_solve", tor)
    out = tmp_path / "out"
    path = _write(tmp_path, SMALL.replace("V_const = 0.25", "V_const = -0.25"))
    assert main(["torsion", path, "--out", str(out)]) == 0
    assert len(lams) == 1
    report = json.loads((out / "torsion_report.json").read_text())
    assert report["positive"] is True


def test_cli_solve_on_lambda_grid_exits_2(tmp_path, capsys, monkeypatch):
    _no_solver(monkeypatch)
    text = SMALL.replace("lambda = 0.5",
                         "lambda_start = 0.05\nlambda_stop = 0.8\nlambda_count = 4")
    assert main(["solve", _write(tmp_path, text), "--out", str(tmp_path / "out")]) == 2
    assert "needs a single lambda" in capsys.readouterr().err


def test_cli_solve_full_report(tmp_path, config_dir):
    # the pinned single-lambda instance; compare against a zero reference
    out = tmp_path / "out"
    ref = tmp_path / "ref.txt"
    write_gridfn(ref, np.zeros(96), build_grid(0.0, 1.0, 96))
    assert main(["solve", "%s/solve.cfg" % config_dir,
                 "--out", str(out), "--ref", str(ref)]) == 0
    report = json.loads((out / "solve_report.json").read_text())
    assert report["residual"] <= 1e-6
    assert report["positive"] is True
    assert report["distinct_from_ref"] is True
    assert report["second"] is not None
    assert report["second"]["distinct"] is True
    values, meta = read_gridfn(out / "solution_mp.txt")
    assert meta["n"] == 96 and np.all(values > 0.0)


@pytest.mark.parametrize("n, s, q, f0", [
    # the flow's Hessian products overflow to a non-finite Rayleigh quotient
    (32, 0.2, 4.25, -0.5),
    # the Ritz value's (a - d) ** 2 overflows a Python float
    (48, 0.3, 23.59999999999998, 0.5),
])
def test_cli_solve_overflow_in_negative_direction_is_no_usage_error(tmp_path, capsys,
                                                                     n, s, q, f0):
    # configs/solve.cfg at p = 3, V = -0.5, lambda = 1: the direction
    # estimate stops at its last finite vector, so the solve ends as a solve,
    # not with exit 2 or a traceback
    text = ("a = 0\nb = 1\nn = %d\ns = %r\np = 3\nq = %r\nf0 = %r\nV_const = -0.5\n"
            "lambda = 1\neigen_tol = 1e-9\n" % (n, s, q, f0))
    out = tmp_path / "out"
    assert main(["solve", _write(tmp_path, text), "--out", str(out)]) in (0, 1)
    assert "Traceback" not in capsys.readouterr().err


def test_cli_verify_all_checks_pass(tmp_path, capsys):
    assert main(["verify", _write(tmp_path, SMALL)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "all checks passed"
    assert sum(ln.startswith("ok   ") for ln in lines) == 9


def test_cli_verify_kernel_check_finds_a_negative_weight(tmp_path, capsys, monkeypatch):
    # one negative entry off the diagonal of one stored block: the mirrored
    # table stays symmetric, so the sign test alone catches it
    real = fracmp.cli.assemble

    def planted(cfg):
        grid, kern, V, nl = real(cfg)
        kern.W_blocks[0][3, 7] = -kern.W_blocks[0][3, 7]
        return grid, kern, V, nl

    monkeypatch.setattr(fracmp.cli, "assemble", planted)
    assert main(["verify", _write(tmp_path, SMALL)]) == 1
    assert ("FAIL kernel symmetry and positivity: AssertionError: kernel weights must be "
            "finite and non-negative") in capsys.readouterr().out.splitlines()


def test_cli_verify_reports_stalled_eigenpair(tmp_path, capsys, monkeypatch):
    # the eigenpair is a check like the others: its failure is reported,
    # the checks built on it are skipped, and the suite runs to its summary
    monkeypatch.setattr(fracmp.eigen, "EIGEN_CAP_PER_NODE", 2 / 32)
    assert main(["verify", _write(tmp_path, SMALL)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert any(ln.startswith("FAIL first eigenpair: SolverError: eigen solver stalled")
               for ln in lines)
    assert sum(ln.endswith("(skipped: no eigenpair)") for ln in lines) == 5
    assert lines[-1] == "1 check(s) failed"


def test_cli_verify_potential_gate_exits_2(tmp_path, capsys):
    # c_V = 20 exceeds lambda1 ~ 12.8: a config problem, not a failed check
    assert main(["verify", _write(tmp_path, SMALL.replace("V_const = 0.25",
                                                          "V_const = -20"))]) == 2
    assert "PotentialGateError" in capsys.readouterr().err


def test_cli_negative_seed_exits_2(tmp_path, capsys, monkeypatch):
    _no_solver(monkeypatch)
    path = _write(tmp_path, SMALL)
    assert main(["solve", path, "--seed", "-1", "--out", str(tmp_path / "out")]) == 2
    assert "seed must be >= 0, got -1" in capsys.readouterr().err


def test_cli_solve_without_second_solution(tmp_path, monkeypatch):
    # every descent of the second-solution search fails: absence is a report
    tried = []
    found = []
    real = sweep_module.find_second_solution

    def fail(u0, *args, **kwargs):
        tried.append(u0)
        raise SolverError("descent stalled")

    def spy(*args, **kwargs):
        found.append(real(*args, **kwargs))
        return found[-1]

    monkeypatch.setattr("fracmp.solve.descend", fail)
    monkeypatch.setattr(sweep_module, "find_second_solution", spy)
    out = tmp_path / "out"
    assert main(["solve", _write(tmp_path, SMALL), "--out", str(out)]) == 0
    # f(0) = 1: the origin, then half the mountain-pass point
    assert len(tried) == 2
    assert found == [None]
    report = json.loads((out / "solve_report.json").read_text())
    assert report["second"] is None
    assert not (out / "solution_second.txt").exists()


SMALL_SWEEP = SMALL.replace("lambda = 0.5",
                            "lambda_start = 0.05\nlambda_stop = 0.8\nlambda_count = 4")


SWEEP_LAMS = np.geomspace(0.05, 0.8, 4)


def _fail_at(monkeypatch, lam, error=SolverError):
    # fails the row of one lambda (every row when lam is None); the rows may
    # run in forked processes, which share no state with this one but the
    # patch itself
    real = sweep_module.mountain_pass

    def mountain_pass(prob, *args, **kwargs):
        if lam is None or prob.lam == lam:
            raise error("mountain pass stalled")
        return real(prob, *args, **kwargs)

    monkeypatch.setattr(sweep_module, "mountain_pass", mountain_pass)


def test_cli_sweep_failed_rows(tmp_path, capsys, monkeypatch):
    _fail_at(monkeypatch, SWEEP_LAMS[1])
    out = tmp_path / "out"
    assert main(["sweep", _write(tmp_path, SMALL_SWEEP), "--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == "lambda=%.6g: FAILED (SolverError: mountain pass stalled)" % SWEEP_LAMS[1]
    rows = _csv_rows(out / "sweep.csv")
    assert all(math.isnan(float(rows[1][k]))
               for k in ("norm_W", "norm_inf", "energy", "residual"))
    assert rows[1]["distinct_count"] == "0" and rows[1]["positive"] == "false"
    assert all(int(r["distinct_count"]) >= 1 for i, r in enumerate(rows) if i != 1)


def test_cli_sweep_every_row_failed_exits_1(tmp_path, capsys, monkeypatch):
    _fail_at(monkeypatch, None)
    out = tmp_path / "out"
    assert main(["sweep", _write(tmp_path, SMALL_SWEEP), "--out", str(out)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert sum(ln.endswith(": FAILED (SolverError: mountain pass stalled)")
               for ln in lines) == 4
    assert [r["distinct_count"] for r in _csv_rows(out / "sweep.csv")] == ["0"] * 4


def _cli_sweep(tmp_path, capsys, monkeypatch, cpus):
    """CLI sweep with cpus usable CPUs: (records, CSV rows, stdout, solutions)."""
    monkeypatch.setattr(sweep_module.kernel, "_CPUS", cpus)
    results = []

    def keep(*args, **kwargs):
        results.append(sweep(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(fracmp.cli, "sweep", keep)
    out = tmp_path / ("out%d" % cpus)
    main(["sweep", _write(tmp_path, SMALL_SWEEP), "--out", str(out)])
    stdout = capsys.readouterr().out.replace(str(out), "OUT")
    rows = [ln for ln in (out / "sweep.csv").read_text().splitlines()
            if not ln.startswith("#")]
    solutions = [(lam, [None if cp is None else cp.u.tobytes() for cp in pair])
                 for lam, *pair in results[0].solutions]
    return results[0].records, rows, stdout, solutions


@pytest.mark.parametrize("failing", [None, 1], ids=["all-rows-solve", "one-row-fails"])
def test_sweep_rows_in_processes_equal_serial(tmp_path, capsys, monkeypatch, failing):
    if failing is not None:
        _fail_at(monkeypatch, SWEEP_LAMS[failing])
    serial = _cli_sweep(tmp_path, capsys, monkeypatch, 1)
    parallel = _cli_sweep(tmp_path, capsys, monkeypatch, 2)
    assert sweep_module._row_workers(4, 32) == 2  # the second run used two processes
    # NaN fields of a failed row compare unequal: compare their text
    assert repr(parallel[0]) == repr(serial[0])
    assert parallel[1:] == serial[1:]
    assert len(serial[3]) == 4
    assert [cps[0] is None for _, cps in serial[3]] == [i == failing for i in range(4)]


@pytest.mark.parametrize("cpus", [1, 2])
def test_sweep_unexpected_error_propagates(tmp_path, monkeypatch, cpus):
    # not a FracmpError: no failed row, and not hidden behind the pool's
    # own errors; no row process outlives the call (conftest)
    monkeypatch.setattr(sweep_module.kernel, "_CPUS", cpus)
    _fail_at(monkeypatch, SWEEP_LAMS[2], RuntimeError)
    with pytest.raises(RuntimeError, match="mountain pass stalled") as err:
        sweep(parse_config(_write(tmp_path, SMALL_SWEEP)))
    # from a worker process, the error carries the worker's traceback
    remote = type(err.value.__cause__).__name__ == "_RemoteTraceback"
    assert remote == (cpus == 2)


@pytest.mark.parametrize("cpus", [1, 2])
def test_sweep_row_problem_error_is_a_failed_row(tmp_path, monkeypatch, cpus):
    # make_problem raises inside the row's try, so its error becomes a
    # failed record in the row's own process; an ExportError could not be
    # unpickled in this one
    monkeypatch.setattr(sweep_module.kernel, "_CPUS", cpus)
    real = sweep_module.make_problem

    def make_problem(grid, kern, V, lam, nl):
        if lam == SWEEP_LAMS[2]:
            raise ExportError("cannot write", "row.csv")
        return real(grid, kern, V, lam, nl)

    monkeypatch.setattr(sweep_module, "make_problem", make_problem)
    records = sweep(parse_config(_write(tmp_path, SMALL_SWEEP))).records
    assert [r.ok for r in records] == [True, True, False, True]
    assert records[2].error == "ExportError: cannot write: row.csv"


@pytest.mark.parametrize("hats, inside", [((1.0, 1.0), True), ((0.5, 1.0), False),
                                          ((1.0, 0.5), False)],
                         ids=["inside", "at-hat1", "at-hat2"])
def test_sweep_record_in_window_below_both_thresholds(tmp_path, monkeypatch, hats, inside):
    # the row at lambda = 0.5 fails at once; its record still says whether
    # lambda lies below lam_hat1 and lam_hat2
    def stalled(*args):
        raise SolverError("mountain pass stalled")

    monkeypatch.setattr(sweep_module, "solve_lambda", stalled)
    consts = ScalingConstants(*[1.0] * 7, *hats)
    parts = sweep_module.assemble(parse_config(_write(tmp_path, SMALL)))
    rec, _ = sweep_module._sweep_row(None, parts, None, consts, 0.5)
    assert not rec.ok and rec.in_window is inside


@pytest.mark.parametrize("cpus, share", [(1, 1), (2, 1), (3, 1), (8, 2)])
def test_sweep_row_workers_get_their_share_of_the_cpus(tmp_path, monkeypatch, cpus, share):
    # the row processes fill the CPUs, so a row's kernel counts on its share
    # of them: one for as many rows as CPUs, and it then shares no stacks.
    # The spy's error text carries the count back from the worker
    def spy(*args):
        raise SolverError("cpus %d" % sweep_module.kernel._CPUS)

    monkeypatch.setattr(sweep_module.kernel, "_CPUS", cpus)
    monkeypatch.setattr(sweep_module, "solve_lambda", spy)
    records = sweep(parse_config(_write(tmp_path, SMALL_SWEEP))).records
    assert [r.error for r in records] == ["SolverError: cpus %d" % share] * 4
    assert sweep_module.kernel._CPUS == cpus


@pytest.mark.parametrize("cpus, n, workers", [(1, 32, 0), (2, 32, 2), (8, 32, 4),
                                              (2, 511, 2), (2, 512, 0)])
def test_row_workers(monkeypatch, cpus, n, workers):
    # processes only while the pair tables stay on one thread
    monkeypatch.setattr(sweep_module.kernel, "_CPUS", cpus)
    assert sweep_module._row_workers(4, n) == workers


def test_cli_verify_mountain_pass_honours_cap(tmp_path, capsys, monkeypatch):
    # verify's mountain pass is the one solve and sweep run, cap included:
    # at most MP_OUTER_CAP path steps, each one recorded level after the first
    levels = []
    real = sweep_module.mountain_pass

    def spy(*args, **kwargs):
        try:
            cp = real(*args, **kwargs)
        except SolverError as exc:
            levels.append(len(exc.last.trace))
            raise
        levels.append(len(cp.trace))
        return cp

    monkeypatch.setattr(sweep_module, "mountain_pass", spy)
    monkeypatch.setattr(fracmp.solve, "MP_OUTER_CAP", 3)
    main(["verify", _write(tmp_path, SMALL)])
    assert levels == [1 + 3]
    assert "mountain pass" in capsys.readouterr().out


# Run in a fresh interpreter: the test session itself holds scipy for its
# oracles.  One CPU keeps the sweep's rows in this process, where they show.
# The mountain pass at the end is an instance whose saddle polish takes the
# Newton fallback.
_NO_SCIPY_RUN = """
import logging
import sys
import fracmp
import fracmp.cli
import fracmp.eigen
import fracmp.solve
from fracmp import (assemble_kernel, build_grid, certify_constants, construct_endpoints,
                    first_eigenpair, make_nonlinearity, make_potential, make_problem,
                    mountain_pass)
fracmp.kernel._CPUS = 1
cfg, sweep_cfg, out = sys.argv[1:]
for command, path in (("eigen", cfg), ("torsion", cfg), ("solve", cfg), ("sweep", sweep_cfg)):
    assert fracmp.cli.main([command, path, "--out", out]) == 0, command
logging.basicConfig(level=logging.INFO, format="%(message)s", stream=sys.stdout)
grid = build_grid(0.0, 1.0, 64)
kern = assemble_kernel(grid, 0.2, 3.0)
prob = make_problem(grid, kern, make_potential(grid, constant=0.25), 0.5,
                    make_nonlinearity(4.0, 1.0, 3.0, 0.2))
phi1 = first_eigenpair(kern, grid, 1e-9).phi1
consts = certify_constants(prob, phi1)
e0, e1 = construct_endpoints(prob, phi1, consts)
mountain_pass(prob, e0, e1, tol=1e-6, constants=consts)
print(sorted(k for k in sys.modules if k == "scipy" or k.startswith("scipy.")))
"""


def test_workload_commands_load_no_scipy(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(fracmp.__file__)))
    run = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY_RUN, _write(tmp_path, SMALL),
         _write(tmp_path, SMALL_SWEEP, "sweep.cfg"), str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=300, check=False)
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert any(ln.startswith("saddle polish used the Newton fallback") for ln in lines)
    assert lines[-1] == "[]"


# Run in a fresh interpreter: the test session has loaded numpy.random.
_CERTIFY_RUN = """
import sys
from fracmp.config import lambdas, parse_config
from fracmp.sweep import assemble, certify
cfg = parse_config(sys.argv[1])
certify(cfg, assemble(cfg), float(lambdas(cfg)[0]))
print("numpy.random" in sys.modules)
"""


def _fresh_run(script, cfg_path):
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(fracmp.__file__)))
    run = subprocess.run([sys.executable, "-c", script, cfg_path],
                         env=env, capture_output=True, text=True, timeout=300, check=False)
    assert run.returncode == 0, run.stderr
    return run.stdout.splitlines()


def test_certify_draws_no_random_numbers(config_dir):
    assert _fresh_run(_CERTIFY_RUN, os.path.join(config_dir, "sweep.cfg"))[-1] == "False"


# The first point is the local minimum by the origin, so every start of the
# search runs and none finds a second point.
_SECOND_RUN = """
import sys
from fracmp.config import lambdas, parse_config
from fracmp.solve import construct_endpoints, descend, find_second_solution
from fracmp.sweep import assemble, certify
cfg = parse_config(sys.argv[1])
eig, prob, consts = certify(cfg, assemble(cfg), float(lambdas(cfg)[0]))
e0, _ = construct_endpoints(prob, eig.phi1, consts)
first = descend(e0, prob, cfg.solve_tol)
print(find_second_solution(prob, first, cfg.solve_tol) is None)
print("numpy.random" in sys.modules)
"""


def test_second_solution_search_draws_no_random_numbers(tmp_path):
    assert _fresh_run(_SECOND_RUN, _write(tmp_path, SMALL))[-2:] == ["True", "False"]
