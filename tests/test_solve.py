"""Critical-point machinery on the standard instance.

The certified-constant values are frozen from a deterministic run; the
threshold formulas are additionally recomputed inline from their
ingredients.  Saddle and descent outcomes are checked against the
contracts (residual, monotone levels, ring lower bound) rather than
frozen iterates.
"""

import dataclasses
import functools
import logging
import math
import re
import warnings

import numpy as np
import pytest

import fracmp.solve
from fracmp import (
    CriticalPoint,
    ExponentWindowError,
    HypothesisError,
    NonlinearitySpec,
    PreconditionError,
    SolverError,
    UsageError,
    assemble_kernel,
    build_grid,
    certify_constants,
    classify,
    comparison_check,
    construct_endpoints,
    descend,
    distinct,
    energy,
    find_second_solution,
    first_eigenpair,
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
from fracmp.config import _check, lambdas, parse_config
from fracmp.kernel import apply_flap, phi_p
from fracmp.model import f_eval, gradient, hessian
from fracmp.solve import _hessian_product
from fracmp.sweep import assemble, certify, first_solution


@pytest.fixture(scope="module")
def endpoints96(prob96, eig96, consts96):
    return construct_endpoints(prob96, eig96.phi1, consts96)


@pytest.fixture(scope="module")
def mp_first(prob96, endpoints96, consts96):
    e0, e1 = endpoints96
    return mountain_pass(prob96, e0, e1, tol=1e-6, constants=consts96)


def test_certified_constants_frozen(consts96):
    assert consts96.lambda1 == pytest.approx(12.976554119765996, rel=1e-9)
    assert consts96.A1 == pytest.approx(0.125, rel=1e-12)
    assert consts96.C1 == pytest.approx(1e-9, rel=1e-9)
    assert consts96.B1 == pytest.approx(0.676524958756807, rel=1e-9)
    assert consts96.sobolev == pytest.approx(0.3331319157217844, rel=1e-9)
    assert consts96.tau == pytest.approx(6.325064758070552, rel=1e-9)
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


def test_sobolev_constant_dominates_samples():
    # the inflated embedding constant must bound sampled quotient ratios, on
    # the standard instance and two coarse grids: at n = 3 an ascent
    # certified 0.1939 where positive samples reach 0.3679, and at n = 2 the
    # maximizer is not even
    for n, s, p, q in ((96, 0.4, 2.0, 3.0), (3, 0.45, 2.2, 2.6), (2, 0.2, 3.0, 5.6)):
        prob, _, _, consts = _instance(n, s, p, q, 1.0, 0.25, 0.5)
        t = q + 1.0
        xi = np.random.default_rng(51).standard_normal((2000, n))
        for u in (xi, np.abs(xi)):
            lq = (prob.grid.h * np.sum(np.abs(u) ** t, axis=1)) ** (1.0 / t)
            bound = consts.sobolev * seminorm_p(u, prob.kernel) ** (1.0 / p)
            assert np.all(lq <= bound), (n, s, p, q)
        # raw estimate sits below its inflated version
        assert sobolev_constant(prob.kernel, prob.grid, t) < consts.sobolev


def test_sobolev_constant_bounds_independent_maximum():
    # L-BFGS-B on log ||u||_4 - log S(u)^(1/p), an ascent independent of
    # sobolev_constant's, from the hat and three Gaussian bumps; the
    # converged raw estimate meets its best quotient (from either side in
    # the last digits), which the certificate bounds from above
    minimize = pytest.importorskip("scipy.optimize").minimize
    t = 4.0
    for n, s, p in ((96, 0.4, 2.0), (192, 0.3, 2.5)):
        prob, _, _, consts = _instance(n, s, p, 3.0, 1.0, 0.25, 0.5)
        grid, K = prob.grid, prob.kernel
        h = grid.h

        def neg_log_quotient(u):
            mass = h * float(np.sum(np.abs(u) ** t))
            S = seminorm_p(u, K)
            grad = -h * phi_p(u, t) / mass + apply_flap(u, K) / (p * S)
            return -math.log(mass) / t + math.log(S) / p, grad

        x = grid.nodes
        starts = [grid.d / np.max(grid.d)] + [
            np.exp(-0.5 * ((x - c) / w) ** 2) for c, w in ((0.5, 0.15), (0.3, 0.1), (0.5, 0.3))]
        best = max(math.exp(-minimize(neg_log_quotient, u0, jac=True, method="L-BFGS-B").fun)
                   for u0 in starts)
        assert sobolev_constant(K, grid, t) == pytest.approx(best, rel=1e-6), (n, s, p)
        assert best <= consts.sobolev, (n, s, p)


def test_sobolev_constant_stall_carries_last_iterate(monkeypatch, kernel96, grid96):
    # ten steps end above tolerance: the error carries the iterate and the
    # residual the minimizer returned
    ended = []

    def spy(*args):
        ended.append(real(*args))
        return ended[-1]

    real = fracmp.solve.rayleigh_minimum
    monkeypatch.setattr(fracmp.solve, "rayleigh_minimum", spy)
    monkeypatch.setattr(fracmp.solve, "SOBOLEV_CAP_PER_NODE", 10 / 96)
    with pytest.raises(SolverError, match="embedding constant stalled") as info:
        sobolev_constant(kernel96, grid96, 4.0)
    u, _, residual, iterations, _ = ended[0]
    assert iterations == 10 and residual > fracmp.solve.SOBOLEV_TOL
    assert info.value.last is u
    assert info.value.residual == residual
    assert info.value.iterations == iterations
    assert seminorm_p(u, kernel96) == pytest.approx(1.0, rel=1e-12)


def test_certify_constants_rejects_unvalidated_spec(monkeypatch, grid96, kernel96, pot96,
                                                    eig96):
    # a spec built by hand is decided before any constant is computed
    def computed(*args, **kwargs):
        raise AssertionError("a constant was computed")

    for name in ("rayleigh", "primitive_envelope", "sobolev_constant"):
        monkeypatch.setattr(fracmp.solve, name, computed)
    for nl, error in ((NonlinearitySpec(q=9.5, f0=1.0, theta=4.0), ExponentWindowError),
                      (NonlinearitySpec(q=3.0, f0=-1.5, theta=3.8), HypothesisError)):
        prob = make_problem(grid96, kernel96, pot96, 0.5, nl)
        with pytest.raises(error):
            certify_constants(prob, eig96.phi1)


def test_endpoints_geometry(prob96, endpoints96, consts96):
    e0, e1 = endpoints96
    assert not np.any(e0)
    assert norm_W(e1, prob96.kernel) == pytest.approx(
        consts96.c * prob96.lam ** -0.5, rel=1e-10)
    # lambda = 0.5 = lam3 / 2 puts the far endpoint below zero energy
    assert energy(e1, prob96) <= 0.0


def test_endpoint_norm_power_law(grid96, kernel96, pot96, nl_f1, eig96, consts96):
    # lambda -> lambda/4 doubles the endpoint norm when r = 1/2
    pa = make_problem(grid96, kernel96, pot96, 0.4, nl_f1)
    pb = make_problem(grid96, kernel96, pot96, 0.1, nl_f1)
    _, e1a = construct_endpoints(pa, eig96.phi1, consts96)
    _, e1b = construct_endpoints(pb, eig96.phi1, consts96)
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
    cp = descend(np.zeros(96), prob, 1e-8)
    assert cp.value == 0.0
    assert cp.residual == 0.0
    assert not np.any(cp.u)
    assert cp.tag == "local-min"


def test_descend_monotone_and_below_start(prob96):
    g = prob96.grid
    tor = torsion_solve(prob96.kernel, g, prob96.V, 1e-8)
    u0 = 0.1 * tor.u
    cp = descend(u0, prob96, 1e-7)
    assert cp.residual <= 1e-7
    assert residual_norm(cp.u, prob96) <= 1e-7 * (1.0 + 1e-12)
    assert cp.value <= energy(u0, prob96)
    drops = np.diff(cp.trace)
    assert np.all(drops <= 1e-12 * (1.0 + np.abs(cp.trace[:-1])))


def test_descend_divergence_guard(grid96, kernel96, pot96, nl_f1):
    # far above the mountain the functional is unbounded below
    prob = make_problem(grid96, kernel96, pot96, 1e4, nl_f1)
    with pytest.raises(SolverError) as err:
        descend(20.0 * np.sin(np.pi * grid96.nodes), prob, 1e-6)
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
    assert cp.tag == "unknown"


def test_mountain_pass_solution_positive(mp_first, grid96):
    all_pos, mn = positivity_check(mp_first, grid96)
    assert all_pos and mn > 0.0
    assert mn == float(np.min(mp_first.u))


def test_mountain_pass_not_a_local_min(mp_first, prob96):
    # the Hessian at a converged saddle has a negative eigenvalue
    assert classify(mp_first, prob96) == "unknown"


def test_classify_origin_local_min_when_f0_zero(grid96, kernel96, pot96, nl_f0):
    # at p = 2 with f(0) = 0 the Hessian at 0 is G + h diag(V): positive definite
    prob = make_problem(grid96, kernel96, pot96, 0.5, nl_f0)
    assert classify(np.zeros(96), prob) == "local-min"


def _spectrum(n, kind, rng):
    """A symmetric n x n matrix with eigenvalues of a kind, and its least one.

    Positive definite: all in [0.1, 10]; indefinite: one in [-10, -0.1];
    singular: one exactly 0, the rest positive.
    """
    lam = rng.uniform(0.1, 10.0, n)
    if kind == "indefinite":
        lam[rng.integers(n)] *= -1.0
    elif kind == "singular":
        lam[rng.integers(n)] = 0.0
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    A = (Q * lam) @ Q.T
    return 0.5 * (A + A.T), lam.min()


def test_classify_pivots_agree_with_eigenvalue_sign(monkeypatch):
    # the elimination's verdict against the sign of the least eigenvalue,
    # with a zero eigenvalue counted as not positive
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    held = {}
    monkeypatch.setattr(fracmp.solve, "hessian", lambda u, prob: held["H"].copy())

    def tag(A):
        held["H"] = A
        return classify(CriticalPoint(u=np.zeros(len(A)), value=0.0, residual=0.0,
                                      tag="unknown", iterations=0), None)

    @hyp.settings(max_examples=80, deadline=None)
    @hyp.given(n=st.integers(1, 40), seed=st.integers(0, 2 ** 32 - 1),
               kind=st.sampled_from(("definite", "indefinite", "singular")))
    def check(n, seed, kind):
        A, least = _spectrum(n, kind, np.random.default_rng(seed))
        eig = np.linalg.eigvalsh(A)
        assert (eig[0] > 1e-8 * abs(eig).max()) == (least > 0.0)
        assert tag(A) == ("local-min" if least > 0.0 else "unknown")

    check()
    assert tag(np.zeros((3, 3))) == "unknown"
    assert tag(np.diag([1.0, np.inf])) == "unknown"


def test_mountain_pass_probes_nothing(prob96, endpoints96, consts96, monkeypatch):
    # probes cannot certify a saddle, so the mountain pass runs none and
    # leaves its point untagged
    calls = []
    monkeypatch.setattr(fracmp.solve, "classify",
                        lambda *args, **kwargs: calls.append(args) or "mountain-pass")
    e0, e1 = endpoints96
    cp = mountain_pass(prob96, e0, e1, tol=1e-6, constants=consts96)
    assert calls == []
    assert cp.tag == "unknown"


def test_mountain_pass_argument_checks(prob96, endpoints96):
    e0, e1 = endpoints96
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
    e0, e1 = endpoints96
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


def test_mountain_pass_stalls_after_three_rejected_rounds(prob96, endpoints96, monkeypatch):
    # every trial scan fails its accept test: each outer iteration rejects 45
    # halved steps, and the third such stall ends the path search with the
    # straight path's level as the only one recorded
    real = fracmp.solve._refined_path
    rejected = []
    first = []

    def refined(path, prob, ends, accept=None, start=0):
        if accept is None:
            first.append(real(path, prob, ends))
            return first[-1]
        rejected.append(start)
        return path, None, 0

    monkeypatch.setattr(fracmp.solve, "_refined_path", refined)
    e0, e1 = endpoints96
    # the polish still reaches the saddle from the straight path's maximiser
    cp = mountain_pass(prob96, e0, e1, tol=1e-6)
    assert len(first) == 1 and len(rejected) == 3 * 45
    level = float(np.max(first[0][1]))
    assert cp.path_value == level
    assert cp.trace.tolist() == [level]


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
    assert positivity_check(np.zeros(96), grid96) == (False, 0.0)


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


def test_find_second_solution_distinct(prob96, mp_first):
    second = find_second_solution(prob96, mp_first, 1e-6)
    assert second is not None
    assert second.residual <= 1e-6
    assert distinct(second.u, mp_first.u)


def _instance(n, s, p, q, f0, V, lam):
    """Problem, endpoints and certified constants of one instance on (0, 1)."""
    grid = build_grid(0.0, 1.0, n)
    kern = assemble_kernel(grid, s, p)
    prob = make_problem(grid, kern, make_potential(grid, constant=V), lam,
                        make_nonlinearity(q, f0, p, s))
    eig = first_eigenpair(kern, grid, 1e-9)
    consts = certify_constants(prob, eig.phi1)
    e0, e1 = construct_endpoints(prob, eig.phi1, consts)
    return prob, e0, e1, consts


def _counted_descents(monkeypatch):
    # each fracmp.solve.descend call's outcome: the point, or the error raised
    outcomes = []
    real = fracmp.solve.descend

    def spy(*args, **kwargs):
        try:
            outcomes.append(real(*args, **kwargs))
        except SolverError as exc:
            outcomes.append(exc)
            raise
        return outcomes[-1]

    monkeypatch.setattr(fracmp.solve, "descend", spy)
    return outcomes


def test_find_second_solution_none_without_descent_when_f0_zero(monkeypatch):
    # f(0) = 0: the origin is the second, trivial, solution; nothing is searched
    prob, e0, e1, consts = _instance(32, 0.4, 2.0, 3.0, 0.0, 0.25, 0.5)
    first = mountain_pass(prob, e0, e1, tol=1e-6, constants=consts)
    outcomes = _counted_descents(monkeypatch)
    assert find_second_solution(prob, first, 1e-6) is None
    assert outcomes == []


def test_find_second_solution_from_half_the_first_point(monkeypatch):
    # the origin's descent diverges at this p = 3, lambda = 3 instance, and
    # the second start, half the mountain-pass point, finds the local minimum
    prob, e0, e1, consts = _instance(32, 0.2, 3.0, 3.8, 1.0, 0.0, 3.0)
    first = mountain_pass(prob, e0, e1, tol=1e-6, constants=consts)
    outcomes = _counted_descents(monkeypatch)
    second = find_second_solution(prob, first, 1e-6)
    assert len(outcomes) == 2
    assert isinstance(outcomes[0], SolverError)
    assert str(outcomes[0]).startswith("descent diverged")
    assert second is outcomes[1]
    assert second.tag == "local-min"
    assert second.u.tobytes() == descend(0.5 * first.u, prob, 1e-6).u.tobytes()


def test_saddle_polish_restarts_then_newton_fallback(monkeypatch, caplog):
    # the reflected flow stalls above tol in all three rounds; the damped
    # Newton fallback from its best iterate reaches tol
    prob, e0, e1, consts = _instance(64, 0.2, 3.0, 4.0, 1.0, 0.25, 0.5)
    rotated_at = []
    real = fracmp.solve._negative_direction

    def spy(w, v, prob, fd_eps):
        rotated_at.append(w.copy())
        return real(w, v, prob, fd_eps)

    monkeypatch.setattr(fracmp.solve, "_negative_direction", spy)
    caplog.set_level(logging.INFO, logger="fracmp.solve")
    # the flow diverges before a restart; its overflow is the restart
    # signal and reaches no one as a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cp = mountain_pass(prob, e0, e1, tol=1e-6, constants=consts)
    # the three rounds share one direction estimate at the path maximizer
    assert sum(np.array_equal(w, rotated_at[0]) for w in rotated_at) == 1
    notes = [r.getMessage() for r in caplog.records
             if r.getMessage().startswith("saddle polish used the Newton fallback")]
    assert len(notes) == 1
    flow, newton = map(float, re.search(
        r"flow residual (\S+), Newton residual (\S+)\)", notes[0]).groups())
    assert 1e-3 < flow < 2e-3
    assert newton < 1e-7
    assert cp.residual == pytest.approx(newton, rel=1e-5)
    assert cp.residual <= 1e-6
    # the fallback's point, to 12 digits
    assert cp.value == pytest.approx(67.45379383076518, rel=1e-12)
    # it has Morse index 2: not the mountain-pass point
    eig = np.linalg.eigvalsh(hessian(cp.u, prob) / prob.h)[:3]
    assert eig == pytest.approx([-228.96, -146.19, 59.20], abs=0.01)
    assert classify(cp, prob) == "unknown"


def test_saddle_polish_restart_round_reaches_tol(monkeypatch, caplog):
    # round 0's flow overflows; round 1 starts again from the path maximizer
    # with a third of the step and reaches tol, so the restart, not the
    # Newton fallback, ends this polish
    prob, e0, e1, consts = _instance(48, 0.2, 3.0, 3.0, 1.0, 1.0, 0.5)
    starts = []
    at_start = []
    real_polish = fracmp.solve._polish_saddle
    real_gradient = fracmp.solve.gradient

    def polish(w0, *args, **kwargs):
        starts.append(w0.copy())
        return real_polish(w0, *args, **kwargs)

    def gradient(u, prob):
        if starts and np.array_equal(u, starts[0]):
            at_start.append(True)
        return real_gradient(u, prob)

    monkeypatch.setattr(fracmp.solve, "_polish_saddle", polish)
    monkeypatch.setattr(fracmp.solve, "gradient", gradient)
    caplog.set_level(logging.INFO, logger="fracmp.solve")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cp = mountain_pass(prob, e0, e1, tol=1e-6, constants=consts)
    # each round's first step evaluates the gradient at the maximizer
    assert len(starts) == 1 and len(at_start) == 2
    assert not any("Newton fallback" in r.getMessage() for r in caplog.records)
    assert cp.residual <= 1e-6


def _index_one(cp, prob):
    # exactly one negative eigenvalue of H/h
    eig = np.linalg.eigvalsh(hessian(cp.u, prob) / prob.h)[:2]
    return eig[0] < 0.0 < eig[1]


def test_mountain_pass_inside_window_q2():
    # the refined samples peak about 26% below the energy of the refined
    # maximizer; judged against that maximizer's level, the index-1 point
    # (value 0.970 of it) is accepted
    prob, e0, e1, consts = _instance(64, 0.3, 2.5, 2.0, 1.0, 0.0, 0.5)
    assert prob.lam < consts.lam3
    cp = mountain_pass(prob, e0, e1, tol=1e-6, constants=consts)
    assert cp.residual <= 1e-6
    assert _index_one(cp, prob)


@pytest.mark.parametrize("lam", [0.2, 0.5])
def test_mountain_pass_inside_window_p3(lam):
    # the flow stalls at residual 0.124 (lambda = 0.2) and 0.019 (0.5); the
    # Newton fallback reaches an index-1 point at 0.997 of the refined
    # maximizer's level.  The index-1 polish of ROADMAP item 3, which
    # replaces the flow and the fallback, must keep solving it.
    prob, e0, e1, consts = _instance(96, 0.3, 3.0, 3.0, 1.0, 0.25, lam)
    assert prob.lam < consts.lam3
    cp = mountain_pass(prob, e0, e1, tol=1e-6, constants=consts)
    assert cp.residual <= 1e-6
    assert _index_one(cp, prob)


def _parent_gradient(v, prob):
    # the gradient out of place, in its association: apply_flap/p + (h V) Phi_p
    # - (lambda h) f
    g = apply_flap(v, prob.kernel) / prob.p
    g += prob.h * prob.V.values * phi_p(v, prob.p)
    g -= prob.lam * prob.h * f_eval(v, prob.nl)
    return g


def _parent_hessian_product(w, xi, prob, fd_eps):
    step = fd_eps * np.atleast_2d(xi)
    g = _parent_gradient(np.concatenate([w + step, w - step]), prob)
    Hxi = (g[:len(step)] - g[len(step):]) / (2.0 * fd_eps)
    return Hxi if np.ndim(xi) == 2 else Hxi[0]


@functools.cache
def _fd_problem(n, p, f0):
    s = 0.9 / (p + 0.5)
    grid = build_grid(0.0, 1.0, n)
    return make_problem(grid, assemble_kernel(grid, s, p),
                        make_potential(grid, constant=0.25), 0.5,
                        make_nonlinearity(p + 0.5, f0, p, s))


def test_hessian_product_matches_parent_formula():
    # one direction and stacks, at points with and without negative entries
    # (both branches of f_eval); the stacked gradient is checked against its
    # out-of-place formula too
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies

    @hyp.settings(max_examples=60, deadline=None)
    @hyp.given(n=st.sampled_from((16, 40, 96)), p=st.sampled_from((2.0, 2.5)),
               f0=st.sampled_from((1.0, -0.5)), seed=st.integers(0, 2 ** 32 - 1),
               positive=st.booleans(), B=st.sampled_from((None, 1, 2, 4)),
               eps=st.sampled_from((1e-5, 3.7e-4)))
    def check(n, p, f0, seed, positive, B, eps):
        prob = _fd_problem(n, p, f0)
        rng = np.random.default_rng(seed)
        w = 3.0 * rng.standard_normal(n)
        if positive:
            w = np.abs(w)
        xi = rng.standard_normal(n if B is None else (B, n))
        got = _hessian_product(w, xi, prob, eps)
        want = _parent_hessian_product(w, xi, prob, eps)
        assert got.shape == xi.shape
        assert got.tobytes() == want.tobytes()
        X = np.concatenate([w + eps * np.atleast_2d(xi), w - eps * np.atleast_2d(xi)])
        assert gradient(X, prob).tobytes() == _parent_gradient(X, prob).tobytes()

    check()


def test_solve_cfg_converges_under_mesh_refinement(config_dir):
    # configs/solve.cfg at n = 24, 48, 96: lambda1 rises, the mountain-pass
    # value and its norm_W fall, and each successive difference shrinks.
    # The ratios of successive differences read 2.67 (lambda1), 1.36 (MP
    # value) and 1.34 (norm_W) here, and 2.48, 1.91 and 1.89 from n = 48,
    # 96, 192: still pre-asymptotic, so the bands leave room both ways
    base = parse_config("%s/solve.cfg" % config_dir)
    seqs = []
    for n in (24, 48, 96):
        cfg = _check(dataclasses.replace(base, n=n))
        eig, prob, consts = certify(cfg, assemble(cfg), float(lambdas(cfg)[0]))
        cp = first_solution(cfg, prob, eig.phi1, consts)
        seqs.append((eig.lambda1, cp.value, norm_W(cp.u, prob.kernel)))
    for (a, b, c), sign, (lo, hi) in zip(zip(*seqs), (1.0, -1.0, -1.0),
                                         ((2.0, 3.2), (1.15, 2.3), (1.15, 2.3))):
        assert sign * (b - a) > 0.0 and sign * (c - b) > 0.0
        assert lo < (b - a) / (c - b) < hi
