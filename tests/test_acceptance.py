"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line straight to the terminal (capture
disabled) before asserting, so a full run leaves a nine-line scorecard.
Heavier shared work (the six-point sweep) is module scoped.
"""

import time

import numpy as np
import pytest
from scipy import integrate, linalg

from fracmp import (
    HypothesisError,
    assemble_kernel,
    build_grid,
    certify_constants,
    comparison_check,
    construct_endpoints,
    descend,
    distinct,
    energy,
    first_eigenpair,
    gradient,
    make_nonlinearity,
    make_potential,
    make_problem,
    mountain_pass,
    parse_config,
    quadratic_form_matrix,
    ring_samples,
    seminorm_p,
    torsion_solve,
    validate_AR,
    validate_H1,
    NonlinearitySpec,
)
from fracmp.cli import main
from fracmp.sweep import sweep as run_sweep

LAMBDA1_N200_DENSE = 13.016448438227403


def _verdict(capsys, num, ok, detail):
    with capsys.disabled():
        print("\ncriterion %d: %s -- %s" % (num, "PASS" if ok else "FAIL", detail))
    return ok


@pytest.fixture(scope="module")
def sweep_cfg(config_dir):
    return parse_config("%s/sweep.cfg" % config_dir)


@pytest.fixture(scope="module")
def sweep_run(sweep_cfg):
    t0 = time.perf_counter()
    result = run_sweep(sweep_cfg)
    return result, time.perf_counter() - t0


def test_criterion_1_gradient_exactness(capsys):
    t0 = time.perf_counter()
    n = 100
    worst = {}
    # s stays at 0.4 for p = 2; the larger exponents need s*p < 1, so
    # they run at s = 0.3 with the same count and tolerances
    for p, s, tol in ((2.0, 0.4, 1e-5), (2.5, 0.3, 1e-3), (3.0, 0.3, 1e-3)):
        g = build_grid(0.0, 1.0, n)
        K = assemble_kernel(g, s, p)
        nl = make_nonlinearity(3.0, 1.0, p, s)
        prob = make_problem(g, K, make_potential(g, constant=0.5), 1.0, nl)
        rng = np.random.default_rng(100)
        worst[p] = 0.0
        for _ in range(20):
            u = rng.standard_normal(n) * rng.uniform(0.2, 3.0)
            grad = gradient(u, prob)
            fd = np.empty(n)
            for i in range(n):
                step = 1e-6 * (1.0 + abs(u[i]))
                up, dn = u.copy(), u.copy()
                up[i] += step
                dn[i] -= step
                fd[i] = (energy(up, prob) - energy(dn, prob)) / (2.0 * step)
            rel = float(np.max(np.abs(fd - grad))) / max(
                float(np.max(np.abs(grad))), 1e-12)
            worst[p] = max(worst[p], rel)
        assert worst[p] < tol or _verdict(
            capsys, 1, False, "p=%g rel err %.3g >= %g" % (p, worst[p], tol))
    elapsed = time.perf_counter() - t0
    ok = elapsed < 30.0
    _verdict(capsys, 1, ok,
             "max rel err %.2e (p=2) %.2e (p=2.5) %.2e (p=3), %.1fs"
             % (worst[2.0], worst[2.5], worst[3.0], elapsed))
    assert ok


def test_criterion_2_eigen_oracle(capsys):
    t0 = time.perf_counter()
    g = build_grid(0.0, 1.0, 200)
    K = assemble_kernel(g, 0.4, 2.0)
    eig = first_eigenpair(K, g, 1e-8)
    G = quadratic_form_matrix(K)
    dense = float(linalg.eigh(G, g.h * np.eye(200), eigvals_only=True,
                              subset_by_index=[0, 0])[0])
    rel = abs(eig.lambda1 - dense) / dense
    nonneg = bool(np.all(eig.phi1 >= 0.0))
    elapsed = time.perf_counter() - t0
    ok = (rel <= 1e-3 and nonneg and elapsed < 60.0
          and abs(dense - LAMBDA1_N200_DENSE) / dense < 1e-9)
    _verdict(capsys, 2, ok,
             "lambda1 %.12g vs dense %.12g (rel %.2e), phi1 >= 0: %s, %.1fs"
             % (eig.lambda1, dense, rel, nonneg, elapsed))
    assert ok


def test_criterion_3_seminorm_oracle(capsys):
    t0 = time.perf_counter()
    n, s, p = 200, 0.4, 2.0
    g = build_grid(0.0, 1.0, n)
    K = assemble_kernel(g, s, p)
    hat = np.minimum(g.nodes, 1.0 - g.nodes)
    S_impl = seminorm_p(hat, K)

    # brute-force double midpoint quadrature on a 400-point tensor grid
    m = 400
    w = 1.0 / m
    x = (np.arange(m) + 0.5) * w
    ux = np.minimum(x, 1.0 - x)
    dist = np.abs(x[:, None] - x[None, :])
    np.fill_diagonal(dist, 1.0)
    inner = float(np.sum(np.abs(ux[:, None] - ux[None, :]) ** p
                         * dist ** -(1.0 + s * p))) * w * w
    sp = s * p
    tails = np.empty(m)
    for k in range(m):
        left, _ = integrate.quad(lambda y: (x[k] - y) ** -(1.0 + sp), -np.inf, 0.0)
        right, _ = integrate.quad(lambda y: (y - x[k]) ** -(1.0 + sp), 1.0, np.inf)
        tails[k] = left + right
    S_oracle = inner + 2.0 * float(np.sum(np.abs(ux) ** p * tails)) * w

    rel = abs(S_impl - S_oracle) / S_oracle
    elapsed = time.perf_counter() - t0
    ok = rel <= 0.02 and elapsed < 60.0
    _verdict(capsys, 3, ok, "S(hat) %.8g vs quadrature %.8g (rel %.2e), %.1fs"
             % (S_impl, S_oracle, rel, elapsed))
    assert ok


def test_criterion_4_endpoint_inequalities(capsys, prob96, eig96, consts96):
    # lambda = min(hat1, hat2)/2 = 0.5 for this instance
    assert prob96.lam == pytest.approx(consts96.lam3 / 2.0)
    _, e1 = construct_endpoints(prob96, eig96.phi1, consts96)
    J_e1 = energy(e1, prob96)
    radius = consts96.tau * prob96.lam ** -prob96.r
    bound = (1.0 / (4.0 * prob96.p)) * radius ** prob96.p
    violations = 0
    min_margin = np.inf
    for u in ring_samples(prob96.kernel, radius, 30, seed=7):
        J = energy(u, prob96)
        min_margin = min(min_margin, J - bound)
        if J < bound:
            violations += 1
    ok = J_e1 <= 0.0 and violations == 0
    _verdict(capsys, 4, ok,
             "J(e1) = %.4g <= 0, ring min margin %.4g above bound %.4g, "
             "violations %d/30" % (J_e1, min_margin, bound, violations))
    assert ok


def test_criterion_5_scaling_laws(capsys, sweep_run):
    result, elapsed = sweep_run
    fit = result.fit
    assert fit is not None
    slopes = (fit.slope_inf, fit.slope_W, fit.slope_energy)
    targets = (-0.5, -0.5, -1.0)
    r2s = (fit.r2_inf, fit.r2_W, fit.r2_energy)
    ok = all(abs(sl - tg) <= 0.15 * abs(tg) for sl, tg in zip(slopes, targets))
    ok = ok and all(r2 >= 0.98 for r2 in r2s)
    ok = ok and all(r.ok for r in result.records)
    ok = ok and elapsed < 600.0
    _verdict(capsys, 5, ok,
             "slopes inf/W/energy %.4f/%.4f/%.4f vs -0.5/-0.5/-1.0, "
             "min R2 %.5f, %.1fs" % (*slopes, min(r2s), elapsed))
    assert ok


def test_criterion_6_multiplicity(capsys, sweep_run, grid96, kernel96,
                                  pot96, nl_f0, eig96):
    # case (a): f0 = 1 at the smallest sweep lambda
    result, _ = sweep_run
    lam0, first, second = result.solutions[0]
    assert lam0 == min(r.lam for r in result.records)
    ok_a = (second is not None and first.residual <= 1e-6
            and second.residual <= 1e-6
            and bool(np.min(first.u) > 0.0) and bool(np.min(second.u) > 0.0)
            and distinct(first.u, second.u))

    # case (b): f0 = 0, origin is a local minimum and a nontrivial
    # critical point exists above the distinctness threshold
    prob0 = make_problem(grid96, kernel96, pot96, 0.5, nl_f0)
    origin = descend(np.zeros(96), prob0, 1e-8)
    consts0 = certify_constants(prob0, eig96.phi1)
    e0, e1 = construct_endpoints(prob0, eig96.phi1, consts0)
    nontrivial = mountain_pass(prob0, e0, e1, tol=1e-6, constants=consts0)
    ok_b = (origin.tag == "local-min"
            and nontrivial.residual <= 1e-6
            and distinct(nontrivial.u, np.zeros(96)))

    ok = ok_a and ok_b
    detail_a = ("f0=1 @ lambda=%.4g: two solutions, residuals %.2g/%.2g, "
                "mins %.3g/%.3g" % (lam0, first.residual,
                                    getattr(second, "residual", np.nan),
                                    np.min(first.u),
                                    np.min(second.u) if second is not None else np.nan))
    detail_b = ("f0=0: origin %s, nontrivial sup %.3g"
                % (origin.tag, float(np.max(np.abs(nontrivial.u)))))
    _verdict(capsys, 6, ok, detail_a + "; " + detail_b)
    assert ok


def test_criterion_7_comparison_positivity(capsys, grid96, kernel96, nl_f1):
    V = make_potential(grid96, constant=0.5)
    tor = torsion_solve(kernel96, grid96, V, 1e-8)
    strictly_positive = bool(np.all(tor.u > 0.0))
    prob = make_problem(grid96, kernel96, V, 0.5, nl_f1)
    report = comparison_check(0.5 * tor.u, tor.u, prob)
    ok = strictly_positive and report.hypothesis and report.ordered is True
    _verdict(capsys, 7, ok,
             "torsion min %.4g > 0; sigma*v <= v: hypothesis %s, ordered %s"
             % (float(np.min(tor.u)), report.hypothesis, report.ordered))
    assert ok


def test_criterion_8_hypothesis_validators(capsys):
    decisions = []  # (expected_accept, actually_accepted)

    for f0 in (0.0, 1.0, -0.5):
        try:
            make_nonlinearity(3.0, f0, 2.0, 0.4)
            accepted = True
        except HypothesisError:
            accepted = False
        decisions.append((True, accepted))

    # theta > q + 1 must be rejected by the superlinearity rule
    for f0, theta in ((0.0, 5.0), (1.0, 4.5)):
        try:
            validate_AR(NonlinearitySpec(q=3.0, f0=f0, theta=theta), 2.0)
            accepted = True
        except HypothesisError:
            accepted = False
        decisions.append((False, accepted))

    # q outside (p-1, p_s^*-1) = (1, 9) must be rejected
    for q in (9.5, 12.0, 1.0, 0.5):
        try:
            validate_H1(NonlinearitySpec(q=q, f0=1.0, theta=3.8), 2.0, 0.4)
            accepted = True
        except HypothesisError:
            accepted = False
        decisions.append((False, accepted))

    false_decisions = sum(1 for want, got in decisions if want != got)
    ok = false_decisions == 0
    _verdict(capsys, 8, ok, "%d designed cases, %d false decisions"
             % (len(decisions), false_decisions))
    assert ok


def test_criterion_9_sweep_determinism(capsys, config_dir, tmp_path):
    cfg_path = "%s/sweep.cfg" % config_dir
    rows = []
    for run in ("one", "two"):
        out = tmp_path / run
        assert main(["sweep", cfg_path, "--out", str(out)]) == 0
        text = (out / "sweep.csv").read_text()
        rows.append([ln for ln in text.splitlines() if not ln.startswith("#")])
    ok = rows[0] == rows[1] and len(rows[0]) == 7  # header + six records
    _verdict(capsys, 9, ok,
             "two CLI runs, %d data rows byte-identical: %s"
             % (len(rows[0]) - 1, rows[0] == rows[1]))
    assert ok
