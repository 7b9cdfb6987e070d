import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdmaps import functionals
from fdmaps.errors import ConfigurationError, DomainError
from fdmaps.fields import sample_analytic, wirtinger_derivatives
from fdmaps.functionals import (TRUNCATION_BOX, FunctionalSpec, concavity_probe,
                                convexity_probe, default_s, energy,
                                integrand, inverse_energy,
                                monotone_truncation_check, phi_eval,
                                polyconvex_lower_bound, truncated_exp, uniform_draws)
from fdmaps.minimize import energy_gradient


def test_spec_validation():
    with pytest.raises(ConfigurationError):
        FunctionalSpec(family="nope")
    with pytest.raises(ConfigurationError):
        FunctionalSpec(family="lp_mean", p=0.0)
    with pytest.raises(ConfigurationError):
        FunctionalSpec(family="trunc_exp", p=1.0, trunc_n=-1)
    with pytest.raises(ConfigurationError):
        FunctionalSpec(family="lp_mean", p=2.0, norm="bogus")


def test_default_s_in_open_interval():
    for p in (1.1, 2.0, 5.0, 50.0):
        s = default_s(p)
        assert 0.0 < s < 1.0 - 1.0 / p


def test_truncated_exp_partial_sums():
    pk = np.array([0.0, 1.0, 2.5])
    S1, S0 = truncated_exp(pk, 1)
    assert S1 == pytest.approx(1.0 + pk)
    assert np.array_equal(S0, np.ones(3))
    S2, S1 = truncated_exp(pk, 2)
    assert S2 == pytest.approx(1.0 + pk + pk ** 2 / 2.0)
    assert S1 == pytest.approx(1.0 + pk)
    # S_2(2.5) = 6.625, used by the Hopf examples
    assert truncated_exp(np.array([2.5]), 2)[0][0] == pytest.approx(6.625)
    big = truncated_exp(pk, 40)[0]
    assert big == pytest.approx(np.exp(pk), rel=1e-12)


def _termwise_truncated_exp(pk, n_max):
    # the separate term-wise loop per order that the one-pass sums replace
    total = np.ones_like(pk) if n_max >= 0 else np.zeros_like(pk)
    term = np.ones_like(pk)
    for n in range(1, n_max + 1):
        term = term * pk / n
        total = total + term
    return total


@pytest.mark.parametrize("n_max", [-1, 0, 1, 2, 8, 40])
def test_one_pass_truncations_match_termwise_bits(rng, monkeypatch, n_max):
    # S_N and S_{N-1} come from one pass with the operations of the
    # term-wise loop in the same order, so every bit agrees; S_{-1} = 0
    pk = np.concatenate([[0.0], rng.uniform(0.0, 30.0, 500)])
    S_N, S_prev = truncated_exp(pk, n_max)
    assert np.array_equal(S_N, _termwise_truncated_exp(pk, n_max))
    assert np.array_equal(S_prev, _termwise_truncated_exp(pk, n_max - 1))
    # and the kernel's value and partials on trunc_exp keep their bits
    Q = rng.uniform(0.0, 1.0, 500)
    P = Q + rng.uniform(0.1, 2.0, 500)
    for spec in (FunctionalSpec(family="trunc_exp", p=1.5, trunc_n=max(n_max, 0)),
                 FunctionalSpec(family="trunc_exp", p=1.0, trunc_n=max(n_max, 0),
                                norm="op", jac_exp=0.5)):
        one_pass = integrand(spec, P, Q, derivatives=True)
        with monkeypatch.context() as m:
            m.setattr(functionals, "truncated_exp", lambda pk, n: (
                _termwise_truncated_exp(pk, n), _termwise_truncated_exp(pk, n - 1)))
            termwise = integrand(spec, P, Q, derivatives=True)
        assert all(np.array_equal(a, b) for a, b in zip(one_pass, termwise))


def test_phi_eval_families():
    x, y = 2.0, 1.0  # k = x^2/y = 4
    assert phi_eval(FunctionalSpec(family="lp_mean", p=2.0), x, y) == pytest.approx(16.0)
    assert phi_eval(FunctionalSpec(family="exp_p", p=0.5), x, y) == pytest.approx(math.exp(2.0))
    assert phi_eval(FunctionalSpec(family="trunc_exp", p=0.5, trunc_n=1), x, y) == pytest.approx(3.0)
    assert phi_eval(FunctionalSpec(family="dirichlet"), x, y) == pytest.approx(4.0)
    # jacobian weighting multiplies by y^jac_exp
    spec = FunctionalSpec(family="lp_mean", p=1.0, jac_exp=1.0)
    assert phi_eval(spec, x, 2.0) == pytest.approx((x ** 2 / 2.0) * 2.0)


def test_phi_eval_degenerate_jacobian_is_infinite():
    spec = FunctionalSpec(family="lp_mean", p=2.0)
    assert phi_eval(spec, 1.0, 0.0) == np.inf
    assert phi_eval(spec, 1.0, -1.0) == np.inf
    # the rate-free quadratic family ignores the Jacobian
    assert phi_eval(FunctionalSpec(family="dirichlet"), 3.0, -1.0) == pytest.approx(9.0)


@pytest.mark.parametrize("spec", [
    FunctionalSpec(family="lp_mean", p=2.0),
    FunctionalSpec(family="exp_p", p=1.0, norm="op"),
    FunctionalSpec(family="trunc_exp", p=1.0, trunc_n=8),
    FunctionalSpec(family="dirichlet", jac_exp=0.5),
    FunctionalSpec(family="dirichlet"),
])
def test_nonpositive_jacobian_rule(spec, part_folded):
    # one rule everywhere: Phi = inf where J <= 0, except Dirichlet with
    # jac_exp = 0, which ignores J; the gradient is undefined there
    jac_free = spec.family == "dirichlet" and spec.jac_exp == 0.0
    P = np.array([1.0, 1.0, 1.0])
    Q = np.array([0.25, 1.0, 4.0])  # J > 0, J = 0, J < 0
    values = integrand(spec, P, Q)
    phi, dP, dQ = integrand(spec, P, Q, derivatives=True)
    assert np.array_equal(values, phi)
    assert np.isfinite(phi[0]) and np.isfinite(dP[0]) and np.isfinite(dQ[0])
    assert np.all(np.isfinite(phi[1:])) == jac_free
    assert np.all(np.isinf(phi[1:])) != jac_free
    y = P - Q
    x = np.sqrt(2.0 * (P + Q)) if spec.norm == "hs" else np.sqrt(P) + np.sqrt(Q)
    assert np.array_equal(np.isinf(phi_eval(spec, x, y)), np.isinf(phi))
    assert (phi_eval(spec, 1.0, -1.0) == np.inf) != jac_free
    d = wirtinger_derivatives(part_folded)
    assert np.any(d.jac <= 0)
    assert np.isfinite(energy(spec, d)) == jac_free
    with pytest.raises(DomainError):
        energy_gradient(spec, part_folded)


def test_identity_energies(disk5):
    d = wirtinger_derivatives(sample_analytic(disk5, "identity"))
    area = disk5.total_area
    # K = 2 identically for the identity
    assert energy(FunctionalSpec(family="lp_mean", p=2.0), d) == pytest.approx(4.0 * area)
    assert energy(FunctionalSpec(family="exp_p", p=1.0), d) == pytest.approx(area * math.e ** 2)
    assert energy(FunctionalSpec(family="dirichlet"), d) == pytest.approx(2.0 * area)


def test_forward_inverse_energy_affine(disk4):
    # the change-of-variables identity for every family with a rate, under
    # both norms; one test (not a parametrisation) so that its name is kept
    d = wirtinger_derivatives(sample_analytic(disk4, "affine", 1.0, 1.0 / 3.0))
    for family in ("lp_mean", "exp_p", "trunc_exp"):
        for norm in ("hs", "op"):
            spec = FunctionalSpec(family=family, p=1.0, trunc_n=8, norm=norm)
            ispec = spec.with_(jac_exp=1.0)
            assert inverse_energy(ispec, d) == pytest.approx(energy(spec, d), rel=1e-12), \
                (family, norm)


KERNEL_FAMILIES = [("lp_mean", 0), ("exp_p", 0), ("trunc_exp", 0), ("trunc_exp", 8),
                   ("dirichlet", 0)]


@pytest.mark.parametrize("jac_exp", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("norm", ["hs", "op"])
@pytest.mark.parametrize("family,trunc_n", KERNEL_FAMILIES)
def test_integrand_partials_match_central_differences(family, trunc_n, norm, jac_exp):
    spec = FunctionalSpec(family=family, p=1.3, trunc_n=trunc_n, norm=norm,
                          jac_exp=jac_exp)
    # J = P - Q > 0 throughout; the last column has Q = 0, where the
    # operator norm's dx^2/dQ is infinite from the right, so only dPhi/dP
    # is differenced there
    P = np.array([2.0, 1.5, 3.0, 0.7, 1.2])
    Q = np.array([0.5, 0.2, 2.5, 0.1, 0.0])
    phi, dP, dQ = integrand(spec, P, Q, derivatives=True)
    assert np.array_equal(phi, integrand(spec, P, Q))
    h = 1e-6
    fd_P = (integrand(spec, P + h, Q) - integrand(spec, P - h, Q)) / (2 * h)
    fd_Q = (integrand(spec, P[:-1], Q[:-1] + h)
            - integrand(spec, P[:-1], Q[:-1] - h)) / (2 * h)
    np.testing.assert_allclose(dP, fd_P, rtol=1e-6, atol=1e-8)
    np.testing.assert_allclose(dQ[:-1], fd_Q, rtol=1e-6, atol=1e-8)
    assert np.all(np.isfinite(dQ))


def test_inverse_energy_requires_positive_jacobian(disk3):
    m = sample_analytic(disk3, "identity")
    folded = type(m)(disk3, np.conj(m.values), None)
    d = wirtinger_derivatives(folded)
    with pytest.raises(DomainError):
        inverse_energy(FunctionalSpec(family="lp_mean", p=1.0, jac_exp=1.0), d)


def test_polyconvex_lower_bound_examples():
    lhs, rhs, holds = polyconvex_lower_bound(2.0, 1.0, 2.0, 1.0)
    assert lhs == pytest.approx(rhs)
    assert holds
    _, _, holds2 = polyconvex_lower_bound(3.0, 0.5, 1.0, 2.0)
    assert holds2


def test_polyconvex_lower_bound_is_elementwise():
    rng = np.random.default_rng(3)
    x, y, x0, y0 = (rng.uniform(lo, 10.0, 50) for lo in (0.0, 0.1, 0.0, 0.1))
    lhs, rhs, holds = polyconvex_lower_bound(x, y, x0, y0)
    for i in range(50):
        assert polyconvex_lower_bound(x[i], y[i], x0[i], y0[i]) == (lhs[i], rhs[i], holds[i])
    with pytest.raises(DomainError):
        polyconvex_lower_bound(x, np.where(np.arange(50) == 7, 0.0, y), x0, y0)


@given(st.floats(0.0, 10.0), st.floats(0.1, 10.0),
       st.floats(0.0, 10.0), st.floats(0.1, 10.0))
@settings(max_examples=300, deadline=None)
def test_polyconvex_lower_bound_property(x, y, x0, y0):
    _, _, holds = polyconvex_lower_bound(x, y, x0, y0)
    assert holds


def test_convexity_probe_families():
    # the weighted inverse-problem forms carry the convexity property
    for spec in (FunctionalSpec(family="lp_mean", p=2.0, jac_exp=0.5),
                 FunctionalSpec(family="exp_p", p=1.0, jac_exp=1.0),
                 FunctionalSpec(family="trunc_exp", p=1.0, trunc_n=8, jac_exp=1.0)):
        rep = convexity_probe(spec, spec.s_value, 2000, seed=7)
        assert rep.violations == 0 and rep.n_samples == 4000


def test_convexity_probe_catches_planted_concave():
    # at s = 0 the weighted pass would repeat the unweighted one
    rep = convexity_probe(lambda x, y: -np.asarray(x) ** 2, 0.0, 2000, seed=7)
    assert rep.violations > 0 and rep.n_samples == 2000


def test_monotone_truncation():
    rep = monotone_truncation_check(1.0, 12, 2000, seed=3)
    assert rep.violations == 0


@pytest.mark.parametrize("p, n_max, seed", [(1.0, 20, 0), (1.0, 12, 3), (-1.0, 20, 1)])
def test_monotone_truncation_matches_per_order_check(p, n_max, seed):
    # the one-pass check counts what one term-wise sum per order counted;
    # a negative rate makes the sums alternate, so there is something to count
    x, y = (uniform_draws(seed, stream, 2000, *box)
            for stream, box in enumerate(TRUNCATION_BOX))
    pk = p * x ** 2 / y
    limit = np.exp(pk)
    violations = 0
    for n in range(1, n_max + 1):
        prev, cur = _termwise_truncated_exp(pk, n - 1), _termwise_truncated_exp(pk, n)
        violations += int(np.sum((cur < prev - 1e-12) | (cur > limit * (1 + 1e-12))))
    rep = monotone_truncation_check(p, n_max, 2000, seed=seed)
    assert (rep.n_samples, rep.violations) == (2000 * n_max, violations)


def _splitmix64(seed, k):
    """Output number k of SplitMix64 seeded with `seed`, in Python integers."""
    z = (seed + (k + 1) * 0x9E3779B97F4A7C15) % 2 ** 64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) % 2 ** 64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) % 2 ** 64
    return z ^ (z >> 31)


def test_uniform_draws_pin_splitmix64():
    # stream 0 of seed 0 is SplitMix64's published sequence for seed 0;
    # stream 1 starts at its draw 2^32
    pinned = {0: (0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F),
              1: (0x46093CF9861EC2E4, 0xE7FF814E1D99A40B, 0x99EDB3EBB4A21A15)}
    for stream, words in pinned.items():
        assert uniform_draws(0, stream, 3).tolist() == [(w >> 11) * 2.0 ** -53 for w in words]
    for seed, stream in ((0, 2), (7, 3), (-1, 0), (2 ** 64 + 5, 1)):
        got = uniform_draws(seed, stream, 200, -3.0, 4.0)
        words = [_splitmix64(seed, (stream << 32) + k) for k in range(200)]
        assert got.tolist() == [-3.0 + 7.0 * ((w >> 11) * 2.0 ** -53) for w in words]


@pytest.mark.parametrize("lo, hi", [(0.0, 1.0), (0.1, 5.0), (1e-3, 10.0), (-2.0, -1.5),
                                    (1.0, math.nextafter(1.0, 2.0))])
def test_uniform_draws_lie_in_range(lo, hi):
    # the last interval is one ulp wide: half its draws would round up to hi
    x = uniform_draws(3, 1, 20000, lo, hi)
    assert x.shape == (20000,) and x.dtype == np.float64
    assert np.all(x >= lo) and np.all(x < hi)
    if hi - lo > 1e-3:
        assert abs(np.mean(x) - 0.5 * (lo + hi)) < 0.02 * (hi - lo)


def test_uniform_draws_repeat_and_streams_differ():
    a = uniform_draws(5, 2, 1000)
    assert np.array_equal(a, uniform_draws(5, 2, 1000))
    assert np.array_equal(a[:10], uniform_draws(5, 2, 10))  # draw k needs no earlier draw
    for other in (uniform_draws(5, 3, 1000), uniform_draws(6, 2, 1000)):
        assert not np.any(a == other)


def test_concavity_probe():
    rep = concavity_probe(0.25, 2.0, 2000, seed=3)
    assert rep.violations == 0
    with pytest.raises(ConfigurationError):
        concavity_probe(0.9, 2.0, 10)  # s * p' must stay below 1


@given(st.floats(0.1, 4.0), st.floats(0.1, 4.0))
@settings(max_examples=200, deadline=None)
def test_truncations_increase_to_exponential(x, y):
    spec_prev = None
    k = x ** 2 / y
    vals = [truncated_exp(np.array([k]), n)[0][0] for n in (1, 2, 4, 8)]
    assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))
    assert vals[-1] <= math.exp(k) + 1e-12


def test_hyperbolic_weight_energy(disk4):
    d = wirtinger_derivatives(sample_analytic(disk4, "identity"))
    spec = FunctionalSpec(family="dirichlet", weight="hyperbolic")
    flat = FunctionalSpec(family="dirichlet")
    # the weight is >= 1 on the disk, so the weighted energy dominates
    assert energy(spec, d) > energy(flat, d)
