"""Power-law fitting, table export/reload, seed derivation, and the CLI.

The full six-point sweep lives in the acceptance module; here the sweep
driver is checked only through its preconditions and plumbing, and the
CLI through in-process main() calls on small instances.
"""

import json
import math

import numpy as np
import pytest

from fracmp import (
    CSV_HEADER,
    ConfigurationError,
    ExportError,
    SweepRecord,
    UsageError,
    derive_seed,
    export,
    fit_powerlaw,
    load_records,
    parse_config,
    read_gridfn,
    sweep,
    write_gridfn,
    build_grid,
)
from fracmp.cli import main

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


def test_derive_seed_deterministic():
    assert derive_seed(0, 0) == derive_seed(0, 0)
    seeds = {derive_seed(0, i) for i in range(32)}
    assert len(seeds) == 32  # children do not collide
    assert derive_seed(1, 0) != derive_seed(0, 0)
    expected = int(np.random.SeedSequence([0, 3]).generate_state(1)[0])
    assert derive_seed(0, 3) == expected


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
                    distinct_count=2, in_hat1=True, in_hat2=True),
        SweepRecord(lam=0.8, norm_W=4.0, norm_inf=1.1, energy=2.25,
                    residual=3.3e-8, positive=False, distinct_count=1,
                    in_hat1=True, in_hat2=False),
    ]


def test_export_csv_round_trip(tmp_path):
    path = str(tmp_path / "sweep.csv")
    export(_records(), "csv", path)
    lines = open(path).read().splitlines()
    assert lines[0].startswith("# generated ")
    assert lines[1] == CSV_HEADER
    assert len(lines) == 4
    back = load_records(path)
    assert len(back) == 2
    assert back[0]["lambda"] == 0.1
    assert back[0]["norm_W"] == 12.345678901234567  # 17 digits survive
    assert back[0]["positive"] is True and back[0]["in_window"] is True
    assert back[1]["positive"] is False and back[1]["in_window"] is False
    assert back[1]["distinct_count"] == 1


def test_export_json_round_trip(tmp_path):
    path = str(tmp_path / "sweep.json")
    export(_records(), "json", path)
    body = json.loads(open(path).read())
    assert "generated" in body and len(body["records"]) == 2
    back = load_records(path)
    assert back[0]["energy"] == -1.5e-3
    assert back[1]["in_window"] is False


def test_export_empty_is_header_only(tmp_path):
    path = str(tmp_path / "empty.csv")
    export([], "csv", path)
    lines = [ln for ln in open(path).read().splitlines() if not ln.startswith("#")]
    assert lines == [CSV_HEADER]
    assert load_records(path) == []


def test_export_bad_directory(tmp_path):
    target = str(tmp_path / "nope" / "sweep.csv")
    with pytest.raises(ExportError) as err:
        export(_records(), "csv", target)
    assert err.value.path == target


def test_export_bad_format(tmp_path):
    with pytest.raises(UsageError):
        export(_records(), "xml", str(tmp_path / "x.xml"))


def test_load_records_rejects_wrong_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("lambda,oops\n1,2\n")
    with pytest.raises(ConfigurationError):
        load_records(str(path))


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


@pytest.mark.parametrize("command", ["eigen", "sweep"])
def test_cli_out_naming_a_file_exits_2(tmp_path, capsys, command):
    taken = tmp_path / "taken"
    taken.write_text("")
    text = SMALL
    if command == "sweep":
        text = SMALL.replace("lambda = 0.5",
                             "lambda_start = 0.05\nlambda_stop = 0.8\nlambda_count = 4")
    assert main([command, _write(tmp_path, text), "--out", str(taken)]) == 2
    assert "cannot create output directory" in capsys.readouterr().err


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
