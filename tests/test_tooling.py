"""The benchmark's tracer wraps fracmp functions by name; the timing tool runs.

A traced name that no longer exists would make the traced benchmark run
fail when it installs its wrappers, so every name is checked here.  The
table is read from the tracer's source, without importing the tracer.
tools/kernel_timing.py prints each of its five tables once at a tiny size, and
tools/phase_timing.py its phase table at n = 16, with no timing gate, and
tools/output_digest.py digests every output of the shipped configs at n = 16,
and tools/mp_scan.py prints one outcome line for each of two instances.
"""

import ast
import importlib
import importlib.util
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "fracbench" / "tracer.py"


def _traced():
    tree = ast.parse(TRACER.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("no TRACED table in %s" % TRACER)


def test_every_traced_name_exists():
    traced = _traced()
    assert traced
    missing = [
        "%s.%s" % (module, name)
        for module, names in traced.items()
        for name in names
        if not callable(getattr(importlib.import_module("fracmp." + module), name, None))
    ]
    assert not missing


def _tool(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / (name + ".py"))
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_kernel_timing_tables_run(monkeypatch, capsys):
    tool = _tool("kernel_timing")
    monkeypatch.setattr(tool, "ROUND_S", 1e-4)
    tool.pair_table([8], 1)
    tool.stack_table([8], 1)
    tool.layer_table([8], (1, 2), 1)
    tool.kernel_table([8, 130], 1)
    rows = [ln.split() for ln in capsys.readouterr().out.splitlines()]
    tool.shared_table([8], 1)
    # a shared-stack row: p, n, then the 20-point gradient and the Hessian
    # product, each with its stacks shared and on one thread
    shared = [ln.split() for ln in capsys.readouterr().out.splitlines()[2:]]
    assert [r[:2] for r in shared] == [["2", "8"], ["2.5", "8"]]
    assert all(len(r) == 2 + 2 * 3 and float(r[-1]) > 0.0 for r in shared)
    timed = [r for r in rows if r and r[0] in ("2", "2.5")]
    # two exponents: one pair-table row, B = 1 plus four caps, two layer
    # rows, two kernel rows
    assert len(timed) == 2 * (1 + 5 + 2 + 2)
    # a pair-table row: p, n, then seminorm_p, apply_flap and hessian on
    # two threads and on one
    assert [len(r) for r in timed].count(2 + 3 * 3) == 2
    assert all(float(r[-1]) > 0.0 for r in timed)
    # a kernel row: p, n, then the bytes of the row blocks and the tail
    # (one 8 x 8 block; blocks of 128 x 130 and 2 x 2 at n = 130), and the
    # assembly time
    held = {int(r[1]): int(r[3]) for r in timed[-4:]}
    assert held == {8: 8 * (8 * 8 + 8), 130: 8 * (128 * 130 + 2 * 2 + 130)}


def test_phase_timing_table_runs(capsys):
    assert _tool("phase_timing").main(["--sizes", "16"]) == 0
    row = capsys.readouterr().out.splitlines()[-1].split("|")
    assert row[0].split() == ["16"]
    certify, mp, polish, second = map(float, row[1].split())
    assert min(certify, mp, polish, second) > 0.0 and polish <= mp
    # one negative eigenvalue at the mountain-pass point, none at the second
    mp_eig = [float(x) for x in row[2].split(",")]
    second_eig = [float(x) for x in row[3].split(",")]
    assert mp_eig[0] < 0.0 < mp_eig[1] and 0.0 < second_eig[0] <= second_eig[1]
    # the flow reaches tol at n = 16, so the Newton fallback does not fire;
    # the polish turns its direction once before the flow and once per 40
    # steps after it
    flow, negdir, newton = row[4].split()
    assert int(flow) > 0 and newton == "no"
    assert 1 <= int(negdir) <= 1 + int(flow) // 40
    # the path scans compute at least the rows they count
    computed, counted = map(int, row[5].split())
    assert computed >= counted > 0


def test_output_digest_is_reproducible(capsys):
    tool = _tool("output_digest")
    configs = sorted(str(p) for p in (ROOT / "configs").glob("*.cfg"))
    assert tool.main(["--n", "16", *configs]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert all(re.fullmatch(r"[0-9a-f]{64}  \S+:\S+/\S+( \(exit 0\))?", ln) for ln in lines)
    # eigen, torsion, solve or sweep, and verify: one stdout line each
    assert sum(ln.endswith("(exit 0)") for ln in lines) == 4 * len(configs)
    # the sweep table carries a time stamp, which is not digested
    sweep = [ln for ln in lines if ln.split()[1].startswith("sweep.cfg:")]
    assert any(ln.endswith("/sweep.csv") for ln in sweep)
    assert tool.digest_lines(str(ROOT / "configs" / "sweep.cfg"), 16) == sweep
    stamped = ['{"generated": "%s", "records": []}' % t for t in ("then", "now")]
    assert tool.normalise(stamped[0], "/x") == tool.normalise(stamped[1], "/x")


def test_mp_scan_prints_one_outcome_per_instance(capsys):
    tool = _tool("mp_scan")
    assert tool.main(["--seed", "0", "--count", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    for i, (ln, inst) in enumerate(zip(lines, tool.instances(0, 2))):
        head, result = ln.split("  ")
        fields = dict(f.split("=") for f in head.split()[1:])
        assert head.split()[0] == str(i) and list(fields) == [
            "n", "s", "p", "q", "f0", "V", "lam"]
        n, s, p, q, f0, V, lam = inst
        assert n in tool.SIZES and (s, p) in tool.SP and float(fields["q"]) == q
        assert f0 in tool.F0 and V in tool.V_CONST and lam in tool.LAMBDAS
        # a point's digest and its two lowest H/h eigenvalues, or the error
        assert re.fullmatch(r"ok [0-9a-f]{64} \S+,\S+|[A-Za-z]+Error: .+", result)
    # the same seed draws the same instances
    assert tool.instances(0, 2) == tool.instances(0, 2)


def _ab_record(wall, rss, failed=0, drift=None):
    return {"metrics": {"wall_s": wall, "peak_rss_mb": rss}, "attempted": 6,
            "failed": failed, "worst_drift": drift}


def test_ab_bench_summary_of_canned_runs():
    # no benchmark runs: ten canned pairs.  wall_s: B lower in 9 of 10 and
    # by more than A's interquartile range, but B failed an op that A did
    # not, so the gain is withheld.  peak_rss_mb: B 10% higher in every
    # pair, past its 5% bound
    tool = _tool("ab_bench")
    walls_a = [1.40, 1.45, 1.38, 1.50, 1.42, 1.47, 1.39, 1.44, 1.41, 1.46]
    walls_b = [1.05, 1.10, 1.02, 1.12, 1.50, 1.08, 1.04, 1.07, 1.06, 1.09]
    pairs = [({"w": _ab_record(wa, 40.0, drift=0.0 if i == 0 else None)},
              {"w": _ab_record(wb, 44.0, failed=int(i == 3), drift=0.0 if i == 0 else None)})
             for i, (wa, wb) in enumerate(zip(walls_a, walls_b))]
    metrics = [{"name": "wall_s", "bound": 0.25, "better": "lower"},
               {"name": "peak_rss_mb", "bound": 0.05, "better": "lower"}]
    lines = tool.summary(pairs, metrics)
    assert lines[0] == "w (10 pairs)"
    wall, rss = lines[2].split(), lines[3].split()
    assert wall[0] == "wall_s" and wall[-1] == "withheld" and "9/10" in wall
    walls = [1.40, 1.45, 1.38, 1.50, 1.42], [1.05, 1.10, 1.02, 1.12, 1.08]
    assert tool.verdict(*walls, 0.25, True, (0, 0))[3] == "gain"
    assert tool.verdict(*walls, 0.25, True, (2, 1))[3] == "gain"
    assert tool.verdict(*walls, 0.25, True, (1, 2))[3] == "withheld"
    assert rss[0] == "peak_rss_mb" and rss[-1] == "WORSE" and "0/10" in rss
    assert rss[-2] == "+10.0%"
    assert lines[4:] == ["  A: 0 of 60 ops failed, worst drift 0",
                         "  B: 1 of 60 ops failed, worst drift 0"]
    # a spread wider than the bound with overlapping runs is unresolved;
    # every B run better than every A run is not
    assert tool.verdict([1.0, 2.0, 3.0, 4.0], [2.5, 2.0, 3.0, 3.5], 0.25, True)[3] == \
        "unresolved"
    assert tool.verdict([3.0, 4.0, 5.0, 6.0], [2.9, 2.8, 2.7, 2.6], 0.25, True)[3] == "gain"
    assert tool.verdict([1.0, 1.01, 0.99, 1.0], [1.02, 1.0, 1.01, 0.99], 0.25, True)[3] == \
        "level"
