"""Critical-point machinery on the standard instance.

The certified-constant values are frozen from the deterministic seed-0
run; the threshold formulas are additionally recomputed inline from
their ingredients.  Saddle and descent outcomes are checked against the
contracts (residual, monotone levels, ring lower bound) rather than
frozen iterates.
"""

import numpy as np
import pytest

import fracmp.solve
from fracmp import (
    CriticalPoint,
    PreconditionError,
    SolverError,
    UsageError,
    classify,
    comparison_check,
    construct_endpoints,
    descend,
    distinct,
    energy,
    find_second_solution,
    make_nonlinearity,
    make_potential,
    make_problem,
    mountain_pass,
    norm_W,
    positivity_check,
    residual_norm,
    ring_samples,
    seminorm_p,
    sobolev_constant,
    torsion_solve,
)


@pytest.fixture(scope="module")
def endpoints96(prob96, eig96, consts96):
    return construct_endpoints(prob96, eig96.phi1, consts96)


@pytest.fixture(scope="module")
def mp_first(prob96, endpoints96, consts96):
    e0, e1, _, _ = endpoints96
    return mountain_pass(prob96, e0, e1, tol=1e-6, seed=0, constants=consts96)


def test_certified_constants_frozen(consts96):
    assert consts96.lambda1 == pytest.approx(12.976554119765996, rel=1e-9)
    assert consts96.A1 == pytest.approx(0.125, rel=1e-12)
    assert consts96.C1 == pytest.approx(1e-9, rel=1e-9)
    assert consts96.B1 == pytest.approx(0.676524958756807, rel=1e-9)
    assert consts96.sobolev == pytest.approx(0.3312524837500277, rel=1e-9)
    assert consts96.tau == pytest.approx(6.3970415898609225, rel=1e-9)
    assert consts96.c == pytest.approx(33.30571362790489, rel=1e-9)
    assert consts96.lam_hat1 == pytest.approx(1503756.1165622254, rel=1e-6)
    assert consts96.lam_hat2 == 1.0  # the cap at 1 binds for this instance
    assert consts96.lam3 == 1.0


def test_threshold_formulas_recompute(prob96, eig96, consts96):
    # re-evaluate the tau / lam_hat2 chain from the stored ingredients
    p, q1, r = 2.0, 4.0, 0.5
    lam1 = consts96.lambda1
    cV, Vinf = prob96.V.cV, prob96.V.Vinf
    assert cV == 0.0 and Vinf == 0.25
    tau = (2.0 * (1.0 - cV / lam1) / (3.0 * p * consts96.sobolev ** q1
                                      * consts96.B1)) ** r
    assert consts96.tau == pytest.approx(tau, rel=1e-12)
    hat2 = min(1.0, (tau ** p * (1.0 - cV / lam1) / (4.0 * p * consts96.B1
                                                     * 1.0)) ** (1.0 / (1.0 + r * p)))
    assert consts96.lam_hat2 == pytest.approx(hat2, rel=1e-12)


def test_sobolev_constant_dominates_samples(kernel96, grid96, consts96):
    # the inflated embedding constant must bound sampled quotient ratios
    rng = np.random.default_rng(51)
    for _ in range(20):
        u = rng.standard_normal(96)
        lq = (grid96.h * float(np.sum(np.abs(u) ** 4.0))) ** 0.25
        assert lq <= consts96.sobolev * seminorm_p(u, kernel96) ** 0.5
    # raw estimate sits below its inflated version
    raw = sobolev_constant(kernel96, grid96, 4.0, seed=0)
    assert raw < consts96.sobolev


def test_endpoints_geometry(prob96, endpoints96, consts96):
    e0, e1, c, tau = endpoints96
    assert not np.any(e0)
    assert c == consts96.c and tau == consts96.tau
    assert norm_W(e1, prob96.kernel) == pytest.approx(
        c * prob96.lam ** -0.5, rel=1e-10)
    # lambda = 0.5 = lam3 / 2 puts the far endpoint below zero energy
    assert energy(e1, prob96) <= 0.0


def test_endpoint_norm_power_law(grid96, kernel96, pot96, nl_f1, eig96, consts96):
    # lambda -> lambda/4 doubles the endpoint norm when r = 1/2
    pa = make_problem(grid96, kernel96, pot96, 0.4, nl_f1)
    pb = make_problem(grid96, kernel96, pot96, 0.1, nl_f1)
    _, e1a, _, _ = construct_endpoints(pa, eig96.phi1, consts96)
    _, e1b, _, _ = construct_endpoints(pb, eig96.phi1, consts96)
    assert norm_W(e1b, kernel96) == pytest.approx(
        2.0 * norm_W(e1a, kernel96), rel=1e-10)


def test_endpoints_need_positive_phi(prob96, eig96, consts96):
    phi = eig96.phi1.copy()
    phi[0] = 0.0
    with pytest.raises(UsageError):
        construct_endpoints(prob96, phi, consts96)


def test_ring_samples_live_on_the_ring(kernel96):
    radius = 3.7
    samples = ring_samples(kernel96, radius, 10, seed=4)
    assert len(samples) == 10
    for u in samples:
        assert norm_W(u, kernel96) == pytest.approx(radius, rel=1e-10)
    again = ring_samples(kernel96, radius, 10, seed=4)
    for a, b in zip(samples, again):
        np.testing.assert_array_equal(a, b)


def test_ring_lower_bound(prob96, consts96):
    # energy on the tau lambda^{-r} ring stays above (1/4p)(tau lambda^{-r})^p
    radius = consts96.tau * prob96.lam ** -0.5
    bound = (1.0 / 8.0) * radius ** 2
    for u in ring_samples(prob96.kernel, radius, 30, seed=7):
        assert energy(u, prob96) >= bound


def test_descend_stays_at_origin_when_f0_zero(grid96, kernel96, pot96, nl_f0):
    prob = make_problem(grid96, kernel96, pot96, 0.5, nl_f0)
    cp = descend(np.zeros(96), prob, 1e-8, seed=0)
    assert cp.value == 0.0
    assert cp.residual == 0.0
    assert not np.any(cp.u)
    assert cp.tag == "local-min"


def test_descend_monotone_and_below_start(prob96):
    g = prob96.grid
    tor = torsion_solve(prob96.kernel, g, prob96.V, 1e-8)
    u0 = 0.1 * tor.u
    cp = descend(u0, prob96, 1e-7, seed=0)
    assert cp.residual <= 1e-7
    assert residual_norm(cp.u, prob96) <= 1e-7 * (1.0 + 1e-12)
    assert cp.value <= energy(u0, prob96)
    drops = np.diff(cp.trace)
    assert np.all(drops <= 1e-12 * (1.0 + np.abs(cp.trace[:-1])))


def test_descend_divergence_guard(grid96, kernel96, pot96, nl_f1):
    # far above the mountain the functional is unbounded below
    prob = make_problem(grid96, kernel96, pot96, 1e4, nl_f1)
    with pytest.raises(SolverError) as err:
        descend(20.0 * np.sin(np.pi * grid96.nodes), prob, 1e-6,
                seed=0, do_classify=False)
    assert "diverged" in str(err.value)
    last = err.value.last
    assert isinstance(last, CriticalPoint)
    assert last.trace[-1] == last.value
    assert last.iterations == err.value.iterations == len(last.trace) - 1


def test_descend_rejects_bad_tol(prob96):
    with pytest.raises(UsageError):
        descend(np.zeros(96), prob96, 0.0)


def test_mountain_pass_contract(mp_first, prob96, consts96):
    cp = mp_first
    assert cp.residual <= 1e-6
    # independent residual recomputation at the returned point
    assert residual_norm(cp.u, prob96) <= 1e-6 * (1.0 + 1e-12)
    assert np.isfinite(cp.value)
    assert cp.path_value is not None
    # recorded min-max levels never increase
    drops = np.diff(cp.trace)
    assert np.all(drops <= 1e-12 * (1.0 + np.abs(cp.trace[:-1])))
    # saddle level respects the ring lower bound (lambda < lam_hat2)
    radius = consts96.tau * prob96.lam ** -0.5
    assert cp.value >= (1.0 / 8.0) * radius ** 2
    assert cp.tag in ("mountain-pass", "unknown")


def test_mountain_pass_solution_positive(mp_first, grid96):
    all_pos, mn, quotient = positivity_check(mp_first, grid96, 0.4)
    assert all_pos and mn > 0.0
    np.testing.assert_allclose(quotient, mp_first.u / grid96.d ** 0.4, rtol=1e-14)


def test_mountain_pass_not_a_local_min(mp_first, prob96):
    # a converged saddle must expose a descent direction to the probe
    rho = 1e-2 * norm_W(mp_first.u, prob96.kernel)
    tag = classify(mp_first, prob96, rho, 20, seed=0)
    assert tag != "local-min"


def test_classify_huge_radius_still_valid(mp_first, prob96):
    tag = classify(mp_first, prob96, 50.0 * norm_W(mp_first.u, prob96.kernel),
                   12, seed=3)
    assert tag in ("local-min", "mountain-pass", "unknown")


def test_mountain_pass_argument_checks(prob96, endpoints96):
    e0, e1, _, _ = endpoints96
    with pytest.raises(UsageError):
        mountain_pass(prob96, e0, e1, P=7)
    with pytest.raises(UsageError):
        mountain_pass(prob96, e1, e1)


def test_mountain_pass_failure_keeps_path_maximiser(prob96, endpoints96, monkeypatch):
    # a re-parameterisation that folds every interior vertex onto e0 forces
    # the collapse branch on the first outer iteration
    def collapse(path, J):
        out = path.copy()
        out[1:-1] = path[0]
        return out

    monkeypatch.setattr(fracmp.solve, "_reparametrize", collapse)
    e0, e1, _, _ = endpoints96
    with pytest.raises(SolverError, match="collapsed") as err:
        mountain_pass(prob96, e0, e1, tol=1e-6)
    last = err.value.last
    assert isinstance(last, CriticalPoint)
    assert last.value == energy(last.u, prob96)
    assert last.residual == residual_norm(last.u, prob96)
    # the maximiser of the collapsed path's refined samples
    fine = [e0, 0.5 * (e0 + e1), e1]
    assert last.value == max(energy(x, prob96) for x in fine)
    assert last.iterations > 0 and last.path_value is not None


def test_comparison_equal_inputs(prob96):
    rng = np.random.default_rng(61)
    u = rng.standard_normal(96)
    report = comparison_check(u, u, prob96)
    assert report.hypothesis and report.ordered
    assert bool(report)


def test_comparison_scaled_torsion_pair(prob96):
    # sigma * v solves the rhs sigma^{p-1} problem, so it sits below v
    v = torsion_solve(prob96.kernel, prob96.grid, prob96.V, 1e-9).u
    report = comparison_check(0.5 * v, v, prob96)
    assert report.hypothesis
    assert report.ordered is True
    assert bool(report)
    assert report.max_excess <= 1e-10


def test_comparison_vacuous_hypothesis(prob96):
    # u = v + positive bump is not a sub/supersolution pair: the check
    # reports that instead of drawing a conclusion
    v = torsion_solve(prob96.kernel, prob96.grid, prob96.V, 1e-9).u
    bump = np.zeros(96)
    bump[40:55] = 0.5 * np.max(v)
    report = comparison_check(v + bump, v, prob96)
    assert not report.hypothesis
    assert report.ordered is None
    assert not bool(report)


def test_comparison_requires_nonnegative_potential(grid96, kernel96, nl_f1):
    Vneg = make_potential(grid96, constant=-0.1)
    prob = make_problem(grid96, kernel96, Vneg, 0.5, nl_f1)
    with pytest.raises(PreconditionError):
        comparison_check(np.zeros(96), np.zeros(96), prob)


def test_positivity_check_zero_function(grid96):
    all_pos, mn, quotient = positivity_check(np.zeros(96), grid96, 0.4)
    assert not all_pos
    assert mn == 0.0
    assert not np.any(quotient)


def test_distinct_predicate():
    u = np.zeros(8)
    assert not distinct(u, u)
    v = np.full(8, 2e-3)  # threshold is 1e-3 * max(sup norms, 1)
    assert distinct(u, v)
    assert distinct(v, u)
    assert not distinct(u, np.full(8, 5e-4))
    big = np.full(8, 100.0)
    assert not distinct(big, big + 0.05)  # 5e-4 relative: below threshold
    assert distinct(big, big + 0.2)


def test_find_second_solution_distinct(prob96, mp_first, endpoints96):
    _, e1, _, _ = endpoints96
    second = find_second_solution(prob96, mp_first, 1e-6, e1=e1, seed=1)
    assert second is not None
    assert second.residual <= 1e-6
    assert distinct(second.u, mp_first.u)
