"""Nonlinearity family, hypothesis validators, energy, gradient and Hessian.

Oracles: the sampled superlinearity deficit s f(s) - theta F(s) for the
exact superlinearity rule, independent fsum-based recomputation for the
energy, central finite differences for the gradient, for f' and for the
Hessian, and at p = 2 the quadratic form's matrix for the Hessian.
"""

import math

import numpy as np
import pytest

from fracmp import (
    ConfigurationError,
    ExponentWindowError,
    HypothesisError,
    NonlinearitySpec,
    Problem,
    UsageError,
    assemble_kernel,
    build_grid,
    critical_exponent,
    default_theta,
    energy,
    exponent_window,
    F_eval,
    f_eval,
    gradient,
    make_nonlinearity,
    make_potential,
    make_problem,
    phi_p,
    primitive_envelope,
    quadratic_form_matrix,
    residual_norm,
    validate_AR,
    validate_H1,
)
from fracmp.kernel import weight_matrix
from fracmp.model import f_prime, hessian


def test_phi_p_values():
    assert phi_p(2.0, 3.0) == pytest.approx(4.0)
    assert phi_p(-2.0, 3.0) == pytest.approx(-4.0)
    assert phi_p(0.0, 2.5) == 0.0


def test_phi_p_odd_increasing():
    s = np.linspace(-3.0, 3.0, 101)
    for p in (2.0, 2.5, 3.0):
        vals = phi_p(s, p)
        np.testing.assert_allclose(phi_p(-s, p), -vals, atol=1e-14)
        assert np.all(np.diff(vals) > 0.0)


def test_default_theta_inside_window():
    assert default_theta(3.0, 2.0) == pytest.approx(3.8)
    for q, p in ((3.0, 2.0), (2.0, 2.5), (5.0, 3.0)):
        th = default_theta(q, p)
        assert p < th < q + 1.0


def _spec(q=3.0, f0=1.0, theta=3.8):
    return NonlinearitySpec(q=q, f0=f0, theta=theta)


def test_f_values():
    nl = _spec(f0=1.0)
    assert f_eval(0.0, nl) == 1.0
    assert f_eval(-1.0, nl) == 0.0
    assert f_eval(-2.0, nl) == 0.0
    assert f_eval(2.0, nl) == pytest.approx(9.0)  # 2^3 + 1


def test_f_continuous_at_breakpoints():
    eps = 1e-9
    for f0 in (0.0, 1.0, -0.5):
        nl = _spec(f0=f0)
        for x in (-1.0, 0.0):
            left = f_eval(x - eps, nl)
            right = f_eval(x + eps, nl)
            assert left == pytest.approx(f_eval(x, nl), abs=1e-7)
            assert right == pytest.approx(f_eval(x, nl), abs=1e-7)


def test_F_values():
    nl = _spec(f0=1.0)
    assert F_eval(0.0, nl) == 0.0
    assert F_eval(1.0, nl) == pytest.approx(1.25)  # 1/4 + 1
    assert F_eval(-1.0, nl) == pytest.approx(-0.5)
    assert F_eval(-5.0, nl) == pytest.approx(-0.5)  # flat below -1
    # global minimum of the primitive for this family
    s = np.linspace(-6.0, 6.0, 240001)
    assert float(np.min(F_eval(s, nl))) == pytest.approx(-0.5, abs=1e-9)


def test_F_prime_is_f():
    rng = np.random.default_rng(41)
    eps = 1e-6
    for f0 in (0.0, 1.0, -0.5):
        nl = _spec(f0=f0)
        # sample away from the kink locations -1, 0
        pts = np.concatenate([rng.uniform(-0.9, -0.1, 10),
                              rng.uniform(0.1, 5.0, 10),
                              rng.uniform(-3.0, -1.1, 5)])
        for x in pts:
            fd = (F_eval(x + eps, nl) - F_eval(x - eps, nl)) / (2.0 * eps)
            assert fd == pytest.approx(f_eval(x, nl), rel=1e-5, abs=1e-8)


def test_exponent_window_arithmetic():
    assert critical_exponent(2.0, 0.4) == pytest.approx(10.0)
    lo, hi = exponent_window(2.0, 0.4)
    assert (lo, hi) == (pytest.approx(1.0), pytest.approx(9.0))


def test_validate_H1_accepts_shipped_specs():
    for f0 in (0.0, 1.0, -0.5):
        assert validate_H1(_spec(f0=f0), 2.0, 0.4) is None


def test_validate_H1_envelope_holds_on_samples():
    # an accepted spec meets the growth envelope with A = 1, B = max(1, f0)
    s = np.geomspace(1e-6, 1e6, 4001)
    for f0 in (0.0, 1.0, -0.5, -1.0 + 1e-6, 50.0):
        nl = _spec(f0=f0)
        validate_H1(nl, 2.0, 0.4)
        f = f_eval(s, nl)
        assert np.all(s ** 3 - 1.0 <= f + 1e-12)
        assert np.all(f <= max(1.0, f0) * (s ** 3 + 1.0) + 1e-12)


def _sampled_H1_accepts(nl):
    # the rule validate_H1 applied on 4,001 samples before it was decided
    # from the formula, kept as an oracle: the largest A and smallest B
    # fitting A(t^q - 1) <= f(t) <= B(t^q + 1) on the samples
    t = np.geomspace(1e-6, 1e6, 4001)
    ft = f_eval(t, nl)
    if f_eval(1.0, nl) < 0.0:
        return False
    B = max(1.0, float(np.max(ft / (t ** nl.q + 1.0))))
    above = t > 1.0
    A_hi = min(1.0, float(np.min(ft[above] / (t[above] ** nl.q - 1.0))))
    neg = (t < 1.0) & (ft < 0.0)
    A_lo = float(np.max(ft[neg] / (t[neg] ** nl.q - 1.0))) if np.any(neg) else 0.0
    if A_hi <= 0.0 or A_lo >= A_hi - 1e-9:
        return False
    return not (np.any(A_hi * (t ** nl.q - 1.0) > ft + 1e-12)
                or np.any(ft > B * (t ** nl.q + 1.0) + 1e-12))


def test_validate_H1_closed_form_property():
    # q inside the window: accepted iff -f0 < 1 - 1e-9, and the same
    # decision as the sampled rule away from the margin f0 in [-1, -1 + 1e-9],
    # where the sampled rule's decision moves with q; q outside it: the
    # window error, whatever f0
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies

    @hyp.settings(max_examples=200, deadline=None)
    @hyp.given(p=st.floats(1.1, 3.0), sp=st.floats(0.05, 0.9),
               q_at=st.floats(0.01, 0.99), f0=st.floats(-2.0, 1e3),
               outside=st.sampled_from((None, "below", "above")))
    @hyp.example(p=2.0, sp=0.8, q_at=0.25, f0=-1.0 + 1e-9, outside=None)
    @hyp.example(p=2.0, sp=0.8, q_at=0.25, f0=-1.0 + 2e-9, outside=None)
    @hyp.example(p=2.0, sp=0.8, q_at=0.25, f0=-1.0, outside=None)
    def check(p, sp, q_at, f0, outside):
        s = sp / p
        lo, hi = exponent_window(p, s)
        if outside is None:
            nl = _spec(q=lo + q_at * (hi - lo), f0=f0)
        else:
            nl = _spec(q=lo * q_at if outside == "below" else hi / q_at, f0=f0)
            with pytest.raises(ExponentWindowError):
                validate_H1(nl, p, s)
            return
        try:
            validate_H1(nl, p, s)
            accepted = True
        except HypothesisError:
            accepted = False
        assert accepted == (-f0 < 1.0 - 1e-9)
        if not -1.0 - 1e-12 <= f0 <= -1.0 + 2e-9:
            assert accepted == _sampled_H1_accepts(nl)

    check()


def test_validate_H1_rejects_exponent_window():
    # p_s^* - 1 = 9 at p = 2, s = 0.4
    with pytest.raises(ExponentWindowError):
        validate_H1(_spec(q=9.5), 2.0, 0.4)
    with pytest.raises(ExponentWindowError):
        validate_H1(_spec(q=1.0), 2.0, 0.4)  # q = p - 1
    with pytest.raises(ExponentWindowError):
        validate_H1(_spec(q=0.5), 2.0, 0.4)


def test_validate_H1_rejects_deep_semipositone():
    # f(1) = f0 + 1 < 0 breaks the lower envelope at s = 1
    with pytest.raises(HypothesisError):
        validate_H1(_spec(f0=-1.5), 2.0, 0.4)


def test_validate_AR_rejections():
    with pytest.raises(HypothesisError):
        validate_AR(_spec(f0=0.0, theta=5.0), 2.0)  # theta > q + 1
    with pytest.raises(HypothesisError):
        validate_AR(_spec(f0=1.0, theta=4.0), 2.0)  # linear decay at theta = q+1
    with pytest.raises(HypothesisError):
        validate_AR(_spec(f0=1.0, theta=2.0), 2.0)  # theta <= p
    # the linear decay -f0 q s is invisible to float sampling for large q
    for q in (5.0, 6.0, 8.0):
        with pytest.raises(HypothesisError, match="theta=%g" % (q + 1.0)):
            validate_AR(_spec(q=q, f0=0.5, theta=q + 1.0), 2.0)


def test_validate_AR_accepts_top_without_positive_f0():
    # theta = q + 1, f0 <= 0: the deficit -f0 q s is bounded below on s > 0
    for q in (2.0, 3.0, 5.0, 8.0):
        for f0 in (0.0, -0.5):
            assert validate_AR(_spec(q=q, f0=f0, theta=q + 1.0), 2.0) is None


def test_validate_AR_agrees_with_sampled_deficit_property():
    # theta a margin below q + 1 is accepted and the sampled deficit grows
    # over its last decade; the same margin above is rejected and the
    # sampled deficit goes negative.  The margin keeps float cancellation
    # of the s^(q+1) terms from deciding either case, and q at least a
    # tenth into its window lets the leading power outrun the linear term
    # within the sampled decades.
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    t = np.geomspace(1.0, 1e4, 401)
    last = t >= 1e3 * (1.0 - 1e-12)

    @hyp.settings(max_examples=80, deadline=None)
    @hyp.given(p=st.floats(1.5, 3.0), q_at=st.floats(0.1, 0.99),
               f0=st.floats(-0.9, 2.0), margin=st.floats(0.05, 0.99),
               above=st.booleans())
    def check(p, q_at, f0, margin, above):
        lo, hi = exponent_window(p, 0.9 / (p + 0.5))
        q = lo + q_at * (hi - lo)
        step = margin * (q + 1.0 - p)
        nl = _spec(q=q, f0=f0, theta=q + 1.0 + step if above else q + 1.0 - step)
        deficit = t * f_eval(t, nl) - nl.theta * F_eval(t, nl)
        if above:
            with pytest.raises(HypothesisError):
                validate_AR(nl, p)
            assert np.min(deficit) < 0.0
        else:
            validate_AR(nl, p)
            assert np.all(np.diff(deficit[last]) > 0.0)

    check()


def test_make_nonlinearity_certifies_everything():
    nl = make_nonlinearity(3.0, 1.0, 2.0, 0.4)
    assert nl == NonlinearitySpec(q=3.0, f0=1.0, theta=default_theta(3.0, 2.0))
    assert nl.theta == pytest.approx(3.8)
    with pytest.raises(ExponentWindowError):
        make_nonlinearity(9.5, 1.0, 2.0, 0.4)
    with pytest.raises(HypothesisError, match="need f0 > -1"):
        make_nonlinearity(3.0, -1.5, 2.0, 0.4)
    with pytest.raises(HypothesisError, match="theta"):
        make_nonlinearity(3.0, 1.0, 2.0, 0.4, theta=4.5)


def test_primitive_envelope_frozen_values():
    cases = {
        1.0: (0.125, 1e-9, 0.676524958756807),
        0.0: (0.125, 1e-9, 0.2625),
        -0.5: (0.125, 3.1499664695466603, 0.2625),
    }
    for f0, expected in cases.items():
        nl = make_nonlinearity(3.0, f0, 2.0, 0.4)
        A1, C1, B1 = primitive_envelope(nl)
        assert A1 == pytest.approx(expected[0], rel=1e-12)
        assert C1 == pytest.approx(expected[1], rel=1e-9)
        assert B1 == pytest.approx(expected[2], rel=1e-9)


def test_primitive_envelope_bounds_hold():
    pos = np.linspace(0.0, 50.0, 20001)
    full = np.linspace(-5.0, 50.0, 20001)
    for f0 in (1.0, 0.0, -0.5):
        nl = make_nonlinearity(3.0, f0, 2.0, 0.4)
        A1, C1, B1 = primitive_envelope(nl)
        assert np.all(F_eval(pos, nl) >= A1 * (pos ** 4 - C1) - 1e-12)
        assert np.all(F_eval(full, nl) <= B1 * (np.abs(full) ** 4 + 1.0) + 1e-12)


def test_make_potential():
    g = build_grid(0.0, 1.0, 5)
    V = make_potential(g, constant=0.25)
    np.testing.assert_allclose(V.values, 0.25)
    assert V.cV == 0.0 and V.Vinf == 0.25
    Vn = make_potential(g, constant=-0.75)
    assert Vn.cV == 0.75 and Vn.Vinf == 0.75
    Vv = make_potential(g, values=np.array([1.0, -2.0, 0.0, 3.0, 0.5]))
    assert Vv.cV == 2.0 and Vv.Vinf == 3.0
    with pytest.raises(ConfigurationError):
        make_potential(g)
    with pytest.raises(ConfigurationError):
        make_potential(g, constant=1.0, values=np.ones(5))


def _problem(n=24, s=0.4, p=2.0, q=3.0, f0=1.0, lam=1.0, V=0.5):
    g = build_grid(0.0, 1.0, n)
    K = assemble_kernel(g, s, p)
    nl = make_nonlinearity(q, f0, p, s)
    return make_problem(g, K, make_potential(g, constant=V), lam, nl)


def test_make_problem_checks():
    prob = _problem()
    assert prob.r == pytest.approx(0.5)  # 1/(q+1-p) with q=3, p=2
    g = build_grid(0.0, 1.0, 24)
    K = assemble_kernel(g, 0.4, 2.0)
    nl = make_nonlinearity(3.0, 1.0, 2.0, 0.4)
    V = make_potential(g, constant=0.5)
    with pytest.raises(ConfigurationError):
        make_problem(g, K, V, 0.0, nl)
    with pytest.raises(ConfigurationError):
        make_problem(g, K, V, -1.0, nl)
    other = build_grid(0.0, 1.0, 25)
    with pytest.raises(UsageError):
        make_problem(other, K, V, 1.0, nl)
    with pytest.raises(UsageError, match="potential sampled at 25 nodes, grid has 24"):
        make_problem(g, K, make_potential(other, constant=0.5), 1.0, nl)
    with pytest.raises(ExponentWindowError, match="q\\+1 = 2 <= p = 2"):
        make_problem(g, K, V, 1.0, NonlinearitySpec(q=1.0, f0=1.0, theta=1.5))


def test_energy_zero_function():
    assert energy(np.zeros(24), _problem()) == 0.0


def test_energy_reduces_to_seminorm():
    # lambda = 0, V = 0 leaves only S(u)/p; built directly since the
    # constructor insists on lambda > 0
    from fracmp import seminorm_p

    g = build_grid(0.0, 1.0, 24)
    K = assemble_kernel(g, 0.4, 2.0)
    nl = make_nonlinearity(3.0, 1.0, 2.0, 0.4)
    prob = Problem(grid=g, kernel=K, V=make_potential(g, constant=0.0),
                   lam=0.0, nl=nl)
    rng = np.random.default_rng(13)
    u = rng.standard_normal(24)
    assert energy(u, prob) == pytest.approx(seminorm_p(u, K) / 2.0, rel=1e-12)


def test_energy_independent_summation():
    # recompute every term with explicit loops and math.fsum
    prob = _problem(n=100, lam=1.0, V=0.5)
    g, K, nl = prob.grid, prob.kernel, prob.nl
    rng = np.random.default_rng(19)
    u = rng.standard_normal(100)
    W = weight_matrix(K)
    terms = []
    for i in range(100):
        for j in range(100):
            if i != j:
                terms.append(W[i, j] * (u[i] - u[j]) ** 2)
        terms.append(2.0 * g.h * K.tail[i] * u[i] ** 2)
    S = math.fsum(terms)
    pot = math.fsum(g.h * 0.5 * u[i] ** 2 for i in range(100))
    non = math.fsum(g.h * F_eval(u[i], nl) for i in range(100))
    expected = S / 2.0 + pot / 2.0 - 1.0 * non
    assert energy(u, prob) == pytest.approx(expected, rel=1e-10)


def test_gradient_at_zero():
    prob = _problem(f0=1.0, lam=2.0)
    g = gradient(np.zeros(24), prob)
    np.testing.assert_allclose(g, -2.0 * prob.h * 1.0, rtol=1e-14)


def test_gradient_matches_finite_differences():
    prob = _problem(n=40, p=2.0)
    rng = np.random.default_rng(29)
    for _ in range(5):
        u = rng.standard_normal(40)
        grad = gradient(u, prob)
        fd = np.empty(40)
        for i in range(40):
            step = 1e-6 * (1.0 + abs(u[i]))
            up, dn = u.copy(), u.copy()
            up[i] += step
            dn[i] -= step
            fd[i] = (energy(up, prob) - energy(dn, prob)) / (2.0 * step)
        scale = max(float(np.max(np.abs(grad))), 1e-12)
        assert float(np.max(np.abs(fd - grad))) / scale < 1e-5


def test_gradient_directional_derivatives():
    # <g, phi> against a centered difference quotient in 10 random
    # directions at 10 random points
    prob = _problem(n=30)
    rng = np.random.default_rng(37)
    eps = 1e-6
    for _ in range(10):
        u = rng.standard_normal(30)
        g = gradient(u, prob)
        for _ in range(10):
            phi = rng.standard_normal(30)
            phi /= float(np.linalg.norm(phi))
            dd = (energy(u + eps * phi, prob) - energy(u - eps * phi, prob)) / (2.0 * eps)
            assert dd == pytest.approx(float(g @ phi), rel=1e-5, abs=1e-7)


def test_gradient_matches_finite_differences_property():
    # directional central differences of the energy at random points, for
    # p at, below and above the smooth p = 2, the three signs of f(0), and
    # points drawn from a few values, so that many pair differences vanish
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    problems = {}

    @hyp.settings(max_examples=40, deadline=None)
    @hyp.given(n=st.integers(2, 40), p=st.sampled_from((1.5, 2.0, 2.5, 3.0)),
               f0=st.sampled_from((-0.5, 0.0, 1.0)), seed=st.integers(0, 2 ** 32 - 1),
               scale=st.floats(0.05, 3.0), tied=st.booleans())
    def check(n, p, f0, seed, scale, tied):
        key = (n, p, f0)
        if key not in problems:
            problems[key] = _problem(n=n, s=0.9 / (p + 0.5), p=p, q=p + 0.5, f0=f0)
        prob = problems[key]
        rng = np.random.default_rng(seed)
        if tied:
            u = scale * rng.integers(-2, 3, n) / 2.0
        else:
            u = scale * rng.standard_normal(n)
        g = gradient(u, prob)
        eps = 1e-6 * scale
        for _ in range(3):
            phi = rng.standard_normal(n)
            phi /= float(np.linalg.norm(phi))
            dd = (energy(u + eps * phi, prob) - energy(u - eps * phi, prob)) / (2.0 * eps)
            assert dd == pytest.approx(float(g @ phi), rel=1e-4,
                                       abs=1e-6 * (1.0 + float(np.linalg.norm(g))))

    check()


def test_gradient_chain_rule_identity():
    # d/dt J(t u) at t = 1 equals <gradient(u), u>
    prob = _problem(n=30)
    rng = np.random.default_rng(43)
    eps = 1e-7
    for _ in range(5):
        u = rng.standard_normal(30)
        dd = (energy((1.0 + eps) * u, prob) - energy((1.0 - eps) * u, prob)) / (2.0 * eps)
        assert dd == pytest.approx(float(gradient(u, prob) @ u), rel=1e-6, abs=1e-7)


def test_residual_norm_definition():
    prob = _problem(n=30)
    rng = np.random.default_rng(47)
    u = rng.standard_normal(30)
    expected = float(np.linalg.norm(gradient(u, prob))) / np.sqrt(prob.h)
    assert residual_norm(u, prob) == pytest.approx(expected, rel=1e-14)


def test_f_prime_matches_finite_differences():
    # central differences of f_eval inside each branch; the right branch at 0
    rng = np.random.default_rng(53)
    eps = 1e-6
    for q, f0 in ((3.0, 1.0), (2.5, -0.5), (1.7, 0.0)):
        nl = NonlinearitySpec(q=q, f0=f0, theta=q)
        for lo, hi in ((0.05, 4.0), (-0.95, -0.05), (-5.0, -1.05)):
            s = rng.uniform(lo, hi, 50)
            fd = (f_eval(s + eps, nl) - f_eval(s - eps, nl)) / (2.0 * eps)
            np.testing.assert_allclose(f_prime(s, nl), fd, rtol=1e-7, atol=1e-7)
        assert f_prime(0.0, nl) == 0.0
        assert f_prime(-0.5, nl) == f0
        assert f_prime(-2.0, nl) == 0.0
        assert isinstance(f_prime(2.0, nl), float)
        assert f_prime(2.0, nl) == q * 2.0 ** (q - 1.0)


def _sampled_potential(n, kind, rng):
    if kind == "constant":
        return {"constant": 0.25}
    return {"values": rng.uniform(-1.0, 2.0, n)}


def test_hessian_matches_finite_differences_property():
    # every column of H against central differences of the gradient, for p
    # at and above 2, with a constant and a sampled potential
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies

    @hyp.settings(max_examples=40, deadline=None)
    @hyp.given(n=st.integers(1, 32), p=st.sampled_from((2.0, 2.5, 3.0)),
               f0=st.sampled_from((-0.5, 0.0, 1.0)), seed=st.integers(0, 2 ** 32 - 1),
               V=st.sampled_from(("constant", "sampled")), scale=st.floats(0.1, 3.0))
    # u[7] = -0.99999946: its difference straddles the kink at -1
    @hyp.example(n=8, p=2.0, f0=-0.5, seed=29, V="sampled", scale=1.2040803353711456)
    def check(n, p, f0, seed, V, scale):
        rng = np.random.default_rng(seed)
        s = 0.9 / (p + 0.5)
        g = build_grid(0.0, 1.0, n)
        prob = make_problem(g, assemble_kernel(g, s, p),
                            make_potential(g, **_sampled_potential(n, V, rng)), 0.7,
                            make_nonlinearity(p + 0.5, f0, p, s))
        u = scale * rng.standard_normal(n)
        eps = 1e-6 * scale
        step = eps * np.eye(n)
        G = gradient(np.concatenate([u + step, u - step]), prob)
        fd = (G[:n] - G[n:]) / (2.0 * eps)
        H = hessian(u, prob)
        assert H.shape == (n, n)
        np.testing.assert_array_equal(H, H.T)
        # f' jumps at -1 and at 0, so a node within eps of either has a
        # diagonal difference that straddles the jump: that entry is left out
        kink = (np.abs(u + 1.0) <= eps) | (np.abs(u) <= eps)
        keep = ~np.diag(kink)
        np.testing.assert_allclose(H[keep], fd[keep], rtol=0.0,
                                   atol=1e-6 * max(1.0, np.abs(H).max()))

    check()


def test_hessian_at_p2_is_the_quadratic_form():
    # H = G + h diag(V - lambda f'(u)): off the diagonal -2 W to the bit
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies

    @hyp.settings(max_examples=30, deadline=None)
    @hyp.given(n=st.integers(1, 48), f0=st.sampled_from((-0.5, 0.0, 1.0)),
               seed=st.integers(0, 2 ** 32 - 1), V=st.sampled_from(("constant", "sampled")))
    def check(n, f0, seed, V):
        rng = np.random.default_rng(seed)
        g = build_grid(0.0, 1.0, n)
        K = assemble_kernel(g, 0.4, 2.0)
        prob = make_problem(g, K, make_potential(g, **_sampled_potential(n, V, rng)), 0.7,
                            make_nonlinearity(3.0, f0, 2.0, 0.4))
        u = 2.0 * rng.standard_normal(n)
        H = hessian(u, prob)
        want = quadratic_form_matrix(K)
        want[np.diag_indices(n)] += g.h * (prob.V.values - prob.lam * f_prime(u, prob.nl))
        off = ~np.eye(n, dtype=bool)
        assert H[off].tobytes() == want[off].tobytes()
        np.testing.assert_allclose(np.diag(H), np.diag(want), rtol=1e-14,
                                   atol=1e-15 * np.abs(want).max())

    check()


def test_hessian_non_finite_below_p2():
    # at p < 2, |d|^(p-2) is infinite where nodes coincide or vanish
    prob = _problem(n=6, s=0.3, p=1.5, q=1.5)
    assert np.all(np.isfinite(hessian(np.arange(1.0, 7.0), prob)))
    with np.errstate(all="raise"):
        H = hessian(np.array([1.0, 1.0, 2.0, 3.0, 0.0, 4.0]), prob)
    assert not np.isfinite(H[0, 1]) and not np.isfinite(H[4, 4])
