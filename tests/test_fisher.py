import dataclasses
import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import beta as beta_fn
from scipy.special import betainc

import flowrank.fisher as fisher_mod
from flowrank.fisher import (
    BUILTIN_DENSITIES,
    FisherMethod,
    ResolutionError,
    ToyDensity,
    estimate_info_max,
    estimate_info_sum,
    info_sum_target,
    limit_info_max,
)
from oracles import limit_info_max_quad

D33 = BUILTIN_DENSITIES["beta33"]

# closed form for the smooth bump x^2(1-x)^2/B(3,3) at theta = 1/2:
# Var((t v X)(p'/p)(t v X))/t^2 = (31/2 - (23/16)^2) / (1/4)
GOLDEN_LIMIT_HALF = 3439.0 / 64.0


def test_builtin_density_is_normalized():
    mass, _ = quad(D33.pdf, 0, 1)
    assert mass == pytest.approx(1.0, abs=1e-10)
    assert D33.mean_mu == 0.5
    assert D33.var_sigma2 == pytest.approx(1.0 / 28.0)


def test_builtin_density_score_moment_finite():
    # E[(p'/p)(X)^2] = 120 * int (1-2x)^2 dx = 40 for this density
    moment, _ = quad(lambda x: D33.pdf_deriv(x) ** 2 / D33.pdf(x), 0, 1)
    assert moment == pytest.approx(40.0, abs=1e-8)


def test_tilted_derivative_integrates_to_one():
    # q(t) = -t p'(t) integrates to 1 for a density vanishing at 1
    value, _ = quad(lambda t: -t * D33.pdf_deriv(t), 0, 1)
    assert value == pytest.approx(1.0, abs=1e-10)


def test_limit_info_max_matches_closed_form():
    assert limit_info_max(D33, 0.5) == pytest.approx(GOLDEN_LIMIT_HALF, abs=1e-8)


def _density(name, pdf, pdf_deriv, cdf, score_ratio, mean_mu, var_sigma2):
    # limit_info_max never samples
    return ToyDensity(name, pdf, pdf_deriv, cdf, score_ratio, mean_mu, var_sigma2, sampler=None)


# p = 2 sin^2(pi x): smooth but not a polynomial; p'^2/p = 8 pi^2 cos^2(pi x)
SIN2 = _density(
    "sin2",
    pdf=lambda x: 2.0 * np.sin(np.pi * x) ** 2,
    pdf_deriv=lambda x: 2.0 * np.pi * np.sin(2.0 * np.pi * x),
    cdf=lambda x: x - np.sin(2.0 * np.pi * x) / (2.0 * np.pi),
    score_ratio=lambda x: 2.0 * np.pi / np.tan(np.pi * x),
    mean_mu=0.5,
    var_sigma2=1.0 / 12.0 - 1.0 / (2.0 * np.pi**2),
)
# the triangle on [0, 1]: a kink at 1/2, and x^2 p'^2/p = 4x^2/(1-x) above it diverges at 1
TRIANGLE = _density(
    "triangle",
    pdf=lambda x: np.where(x < 0.5, 4.0 * x, 4.0 * (1.0 - x)),
    pdf_deriv=lambda x: np.where(x < 0.5, 4.0, -4.0),
    cdf=lambda x: np.where(x < 0.5, 2.0 * x * x, 1.0 - 2.0 * (1.0 - x) ** 2),
    score_ratio=lambda x: np.where(x < 0.5, 1.0 / x, -1.0 / (1.0 - x)),
    mean_mu=0.5,
    var_sigma2=1.0 / 24.0,
)
# p = 12 min(x, 1-x)^2: a kink at 1/2 with every moment finite (p'^2/p = 48)
PARABOLA_TENT = _density(
    "parabola_tent",
    pdf=lambda x: 12.0 * np.minimum(x, 1.0 - x) ** 2,
    pdf_deriv=lambda x: np.where(x < 0.5, 24.0 * x, -24.0 * (1.0 - x)),
    cdf=lambda x: np.where(x < 0.5, 4.0 * x**3, 1.0 - 4.0 * (1.0 - x) ** 3),
    score_ratio=lambda x: np.where(x < 0.5, 2.0 / x, -2.0 / (1.0 - x)),
    mean_mu=0.5,
    var_sigma2=0.025,
)
# p = (pi/2) sin(pi x): smooth, but p'^2/p ~ 1/(1-x) makes the second moment diverge
HALF_SINE = _density(
    "half_sine",
    pdf=lambda x: 0.5 * np.pi * np.sin(np.pi * x),
    pdf_deriv=lambda x: 0.5 * np.pi**2 * np.cos(np.pi * x),
    cdf=lambda x: 0.5 * (1.0 - np.cos(np.pi * x)),
    score_ratio=lambda x: np.pi / np.tan(np.pi * x),
    mean_mu=0.5,
    var_sigma2=0.25 - 2.0 / np.pi**2,
)


def _beta(a, b):
    c = 1.0 / beta_fn(a, b)
    return _density(
        f"beta_{a:g}_{b:g}",
        pdf=lambda x: c * x ** (a - 1) * (1.0 - x) ** (b - 1),
        pdf_deriv=lambda x: (
            c * x ** (a - 2) * (1.0 - x) ** (b - 2) * ((a - 1) * (1.0 - x) - (b - 1) * x)
        ),
        cdf=lambda x: betainc(a, b, x),
        score_ratio=lambda x: (a - 1) / x - (b - 1) / (1.0 - x),
        mean_mu=a / (a + b),
        var_sigma2=a * b / ((a + b) ** 2 * (a + b + 1)),
    )


# p ~ (1-x)^(b-1) with a fractional b: 32 and 64 nodes agree to about 1e-12 for b = 6.5,
# but only to about 5e-8 for b = 4.5, so the two bracket the 1e-10 tolerance
BETA_3_6_5 = _beta(3.0, 6.5)
BETA_3_4_5 = _beta(3.0, 4.5)


def test_limit_info_max_matches_quad_oracle_on_beta33():
    for theta in np.linspace(0.001, 0.999, 501).tolist():
        got, want = limit_info_max(D33, theta), limit_info_max_quad(D33, theta)
        assert f"{got:.8g}" == f"{want:.8g}", theta
        assert got == pytest.approx(want, rel=1e-12, abs=0.0), theta


@pytest.mark.parametrize("density", [SIN2, BETA_3_6_5], ids=lambda d: d.name)
def test_limit_info_max_matches_quad_oracle_on_smooth_density(density):
    for theta in np.linspace(0.01, 0.99, 99).tolist():
        got, want = limit_info_max(density, theta), limit_info_max_quad(density, theta)
        assert got == pytest.approx(want, rel=1e-10, abs=0.0), theta


@pytest.mark.parametrize("density, theta", [
    (TRIANGLE, 0.3), (TRIANGLE, 0.7), (PARABOLA_TENT, 0.3), (HALF_SINE, 0.3), (HALF_SINE, 0.7),
    (BETA_3_4_5, 0.5),
], ids=lambda v: getattr(v, "name", v))
def test_limit_info_max_rejects_what_the_rule_cannot_resolve(density, theta):
    # for a diverging moment quad only warns (IntegrationWarning) and returns a number
    with pytest.raises(ResolutionError):
        limit_info_max(density, theta)


def test_limit_info_max_resolves_a_kink_outside_the_range():
    # above the kink the parabola tent is the polynomial 12 (1-x)^2
    want = limit_info_max_quad(PARABOLA_TENT, 0.7)
    assert limit_info_max(PARABOLA_TENT, 0.7) == pytest.approx(want, rel=1e-12, abs=0.0)


def test_limit_info_max_near_one_is_finite_and_continuous():
    a = limit_info_max(D33, 0.99)
    b = limit_info_max(D33, 0.9899)
    assert a > 0 and b > 0
    assert abs(a - b) < 0.02  # steep but continuous near the endpoint


def test_limit_info_max_validates_theta():
    for theta in (0.0, 1.0, -0.5, 1.5):
        with pytest.raises(ValueError):
            limit_info_max(D33, theta)


def test_info_sum_target_closed_form():
    # mu^2/(theta^4 sigma^2) = 0.25 * 16 * 28 = 112
    assert info_sum_target(D33, 0.5, 100) == pytest.approx(1.12)
    assert info_sum_target(D33, 1.0, 10) == pytest.approx(0.25 * 28.0 / 10.0)
    # still finite, and exactly the closed form in float arithmetic
    assert info_sum_target(D33, 1e-70, 4) == 0.5**2 / (1e-70**4 * (1.0 / 28.0) * 4)


def test_info_sum_target_validates_arguments():
    for theta, dim in ((0.0, 10), (1.5, 10), (0.5, 1), (0.5, 4.5)):
        with pytest.raises(ValueError):
            info_sum_target(D33, theta, dim)


def test_info_sum_target_halves_when_dim_doubles():
    assert info_sum_target(D33, 0.5, 128) == pytest.approx(
        info_sum_target(D33, 0.5, 64) / 2.0
    )


def test_estimate_info_max_deterministic():
    a = estimate_info_max(D33, 0.5, 50, n_mc=5000, seed=123)
    b = estimate_info_max(D33, 0.5, 50, n_mc=5000, seed=123)
    assert a == b
    assert a.method is FisherMethod.MAX_ANALYTIC
    assert a.target == pytest.approx(GOLDEN_LIMIT_HALF, abs=1e-8)


def test_estimate_info_max_approaches_limit():
    est = estimate_info_max(D33, 0.5, 200, n_mc=60_000, seed=5)
    assert est.value == pytest.approx(GOLDEN_LIMIT_HALF, rel=0.25)


def test_estimate_info_max_validates_arguments():
    with pytest.raises(ValueError):
        estimate_info_max(D33, 1.5, 50)
    with pytest.raises(ValueError):
        estimate_info_max(D33, 0.5, 1)
    with pytest.raises(ValueError):
        estimate_info_max(D33, 0.5, 50, n_mc=1)
    with pytest.raises(ValueError, match="^n_mc must be an integer$"):
        estimate_info_max(D33, 0.5, 50, n_mc=2.5)
    with pytest.raises(ValueError, match="^dim must be an integer$"):
        estimate_info_max(D33, 0.5, 50.0)
    for seed, message in ((1.5, "seed must be an integer"), (None, "seed must be an integer"),
                          (-1, "seed must be at least 0")):
        with pytest.raises(ValueError, match=f"^{message}$"):
            estimate_info_max(D33, 0.5, 50, n_mc=100, seed=seed)


def test_estimate_info_sum_tracks_asymptotic_constant():
    est = estimate_info_sum(D33, 0.5, 64)
    assert est.method is FisherMethod.SUM_FFT
    assert 64 * est.value == pytest.approx(112.0, rel=0.25)
    assert est.target == pytest.approx(112.0 / 64.0)


def test_estimate_info_sum_step_halving_is_stable():
    a = estimate_info_sum(D33, 0.5, 32, dtheta=1e-4 * 0.5)
    b = estimate_info_sum(D33, 0.5, 32, dtheta=0.5e-4 * 0.5)
    assert a.value == pytest.approx(b.value, rel=1e-3)


def test_estimate_info_sum_grid_invariance():
    a = estimate_info_sum(D33, 0.5, 32, grid_n=1 << 14)
    b = estimate_info_sum(D33, 0.5, 32, grid_n=1 << 16)
    assert a.value == pytest.approx(b.value, rel=1e-3)


def test_estimate_info_sum_validates_arguments():
    with pytest.raises(ValueError):
        estimate_info_sum(D33, 0.5, 64, grid_n=1000)
    with pytest.raises(ValueError):
        estimate_info_sum(D33, 0.5, 64, grid_n=(1 << 14) + 1)
    with pytest.raises(ValueError):
        estimate_info_sum(D33, 0.5, 1)
    # a fractional dimension is refused, not resolved into a ResolutionError
    with pytest.raises(ValueError, match="^dim must be an integer$"):
        estimate_info_sum(D33, 0.5, 4.5)
    with pytest.raises(ValueError, match="^grid_n must be an integer$"):
        estimate_info_sum(D33, 0.5, 64, grid_n=float(1 << 14))
    with pytest.raises(ValueError):
        estimate_info_sum(D33, 0.5, 64, dtheta=0.6)


def test_estimate_info_sum_matches_analytic_score_route():
    # independent check of the finite-difference score: differentiate the
    # scaled component analytically and convolve, then compare
    dim, theta = 24, 0.5
    grid_n = 1 << 15
    span = (dim - 1) + 1.0 / theta
    step = span / grid_n
    xs = np.arange(grid_n) * step
    base = np.asarray(D33.pdf(xs))
    base /= base.sum()
    base_power = np.fft.rfft(base) ** (dim - 1)
    scaled = theta * np.asarray(D33.pdf(theta * xs))
    norm = scaled.sum() * step
    scaled_pmf = scaled * step / norm
    g = np.fft.irfft(base_power * np.fft.rfft(scaled_pmf), n=grid_n)
    # ringing stays far below the pointwise tolerance on a sane grid
    assert g.min() > -1e-9
    assert g.sum() == pytest.approx(1.0, abs=1e-6)
    # d/dtheta [theta p(theta x)] = p(theta x) + theta x p'(theta x)
    dscaled = (
        np.asarray(D33.pdf(theta * xs)) + theta * xs * np.asarray(D33.pdf_deriv(theta * xs))
    )
    dg = np.fft.irfft(base_power * np.fft.rfft(dscaled * step / norm), n=grid_n)
    mask = g > g.max() * 1e-10
    score = dg[mask] / g[mask]
    j_analytic = float((score**2 * g[mask]).sum())
    est = estimate_info_sum(D33, theta, dim, grid_n=grid_n)
    assert est.value == pytest.approx(j_analytic, rel=2e-3)


def test_estimate_info_sum_raises_on_ringing_grid(monkeypatch):
    def fake_pmf(d, theta_scaled, base_power, xs, grid_n):
        out = np.full(grid_n, 1.0 / grid_n)
        out[::2] -= 2e-6  # inject alternating ringing: every entry stays positive, the total falls
        return out

    monkeypatch.setattr(fisher_mod, "_sum_density_pmf", fake_pmf)
    with pytest.raises(ResolutionError, match="total mass"):
        estimate_info_sum(D33, 0.5, 64, grid_n=1 << 14)


def test_estimate_info_sum_raises_on_negative_density_mass(monkeypatch):
    def fake_pmf(d, theta_scaled, base_power, xs, grid_n):
        out = np.full(grid_n, 1.0 / grid_n)
        out[::2] *= -1.0  # half the mass turns negative
        return out

    monkeypatch.setattr(fisher_mod, "_sum_density_pmf", fake_pmf)
    with pytest.raises(ResolutionError, match="negative density mass"):
        estimate_info_sum(D33, 0.5, 64, grid_n=1 << 14)


def test_estimate_info_sum_raises_when_the_scaled_component_misses_the_grid():
    # supported on [2, 3]: the base grid [0, 3) holds it, the scaled one theta * [0, 3) does not
    shifted = dataclasses.replace(D33, pdf=lambda x: D33.pdf(np.asarray(x) - 2.0))
    with pytest.raises(ResolutionError, match="scaled component has no mass"):
        estimate_info_sum(shifted, 0.5, 2, grid_n=1 << 14)


# subnormal, near 2^-1022, where the limit overflows (1e-154), where only the
# variance of the scores does (3e-154), where the sum's grid misses p (1e-100),
# and where the sum's target overflows (1e-78) or theta^4 underflows (1e-82)
@pytest.mark.parametrize("theta", [5e-324, 1e-320, 1e-308, 1e-200, 1e-160, 1e-154, 3e-154,
                                   1e-150, 1e-100, 1e-82, 1e-78, 1e-10, 1e-3,
                                   np.float64(1e-320), np.float64(1e-82)])
def test_estimators_at_any_theta_are_finite_or_raise_resolution_error(theta):
    estimators = (
        lambda: limit_info_max(D33, theta),
        lambda: info_sum_target(D33, theta, 4),
        lambda: estimate_info_max(D33, theta, 4, n_mc=1000).value,
        lambda: estimate_info_sum(D33, theta, 4, grid_n=1 << 14).value,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for estimate in estimators:
            try:
                assert math.isfinite(estimate())
            except ResolutionError:
                pass


def test_max_info_stays_order_one_while_sum_info_shrinks():
    max_small = estimate_info_max(D33, 0.5, 32, n_mc=40_000, seed=1)
    max_large = estimate_info_max(D33, 0.5, 256, n_mc=40_000, seed=2)
    assert 0.5 <= max_large.value / max_small.value <= 2.0
    sum_small = estimate_info_sum(D33, 0.5, 32)
    sum_large = estimate_info_sum(D33, 0.5, 256)
    assert sum_large.value < sum_small.value / 4.0
