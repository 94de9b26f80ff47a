"""The benchmark's workloads: generated configs, CLI commands and metric names.

Standard library only: the runner imports this before any worker process
(and so before numpy) starts.
"""
from __future__ import annotations

# Outputs at this seed are compared with reference.json (recorded at the
# seed commit); every other seed checks seed-independent invariants only.
REFERENCE_SEED = 0

# configs/sweep.cfg as checked in.  Kept verbatim here so that an edit to the
# sample config does not silently change what the benchmark measures.
_SWEEP_CFG = """\
a = 0.0
b = 1.0
n = 96
s = 0.4
p = 2.0
q = 3.0
f0 = 1.0
V_const = 0.25
lambda_start = 0.025298221281347035
lambda_stop = 0.8
lambda_count = 6
eigen_tol = 1e-9
solve_tol = 1e-6
mp_tol = 1e-6
path_vertices = 21
seed = 0
format = csv
"""

# configs/solve.cfg at n = 192, p = 2.5, s = 0.3: s*p = 0.75 and q = 3 lies
# inside the window (p - 1, p_s^* - 1) = (1.5, 9).
_SOLVE_CFG = """\
a = 0.0
b = 1.0
n = 192
s = 0.3
p = 2.5
q = 3.0
f0 = 1.0
V_const = 0.25
lambda = 0.5
eigen_tol = 1e-9
solve_tol = 1e-6
mp_tol = 1e-6
path_vertices = 21
seed = 0
format = csv
"""

# configs/eigen.cfg at n = 1024, p = 2.5, s = 0.3.  V >= 0 makes c_V = 0, so
# torsion does not repeat the eigen solve.
_EIGEN_CFG = """\
a = 0.0
b = 1.0
n = 1024
s = 0.3
p = 2.5
q = 3.0
f0 = 1.0
V_const = 0.5
lambda = 0.5
eigen_tol = 1e-9
solve_tol = 1e-8
seed = 0
"""

# name -> (config text, CLI subcommands run in order, ops per run).  An op
# is one lambda solve, or one eigen or torsion solve.
WORKLOADS = {
    "sweep-p2-n96": (_SWEEP_CFG, ("sweep",), 6),
    "solve-p2.5-n192": (_SOLVE_CFG, ("solve",), 1),
    "eigen-torsion-p2.5-n1024": (_EIGEN_CFG, ("eigen", "torsion"), 2),
}

# End-to-end metrics of an untraced run: name -> unit.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
}

# Per-layer metrics of a traced run: name -> unit.
PER_LAYER = {
    "kernel.seminorm_p.calls": "count",
    "kernel.seminorm_p.s": "s",
    "kernel.apply_flap.calls": "count",
    "kernel.apply_flap.s": "s",
    "kernel.bytes_computed": "B",
    "kernel.assemble_kernel.s": "s",
    "model.make_nonlinearity.s": "s",
    "model.energy.calls": "count",
    "model.energy.s": "s",
    "model.energy.self_s": "s",
    "model.gradient.calls": "count",
    "model.gradient.s": "s",
    "model.gradient.self_s": "s",
    "solve.mountain_pass.s": "s",
    "solve.mountain_pass.self_s": "s",
    "solve.mountain_pass.energy_calls": "count",
    "solve.mountain_pass.gradient_calls": "count",
    "solve.mountain_pass.levels": "count",
    "solve.certify_constants.s": "s",
    "solve.classify.calls": "count",
    "solve.classify.s": "s",
    "solve.find_second_solution.s": "s",
    "solve.descend.calls": "count",
    "solve.second_found_ratio": "ratio",
    "eigen.first_eigenpair.s": "s",
    "eigen.first_eigenpair.iterations": "count",
    "eigen.torsion_solve.s": "s",
    "eigen.torsion_solve.iterations": "count",
    "sweep.sweep.s": "s",
    "sweep.export.s": "s",
    "grid.write_gridfn.s": "s",
    "config.parse_config.s": "s",
    "trace.overhead_frac": "ratio",
}


def cli_seed(seed: int) -> int:
    """The --seed handed to the CLI; numpy seed sequences need it >= 0."""
    return seed % 2 ** 32
