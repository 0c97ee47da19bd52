"""Information retained by two reductions of a high-dimensional sample.

Setting: D independent positive values share a smooth density p on
[0, 1], except one whose scale is stretched by 1/theta (density
theta*p(theta*x), support [0, 1/theta]). How much Fisher information
about theta survives if we only keep

  * the maximum of the D values (record filtering), or
  * the sum of the D values (aggregation)?

The maximum keeps an amount that stays bounded away from zero as D
grows, with limit Var((theta v X) * (p'/p)(theta v X)) / theta^2 for
X ~ p (v = max). The sum's information decays like
mean(X)^2 / (theta^4 Var(X) D): after centering, the sum is
asymptotically Gaussian with a theta-free law, and the single scaled
summand contributes only an O(D^-1/2) perturbation.

This module estimates both finite-D quantities numerically (exact
density of the max + Monte Carlo; spectral convolution for the sum's
density + finite differences) and provides the two asymptotic targets.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

ArrayLike = Union[float, np.ndarray]

# mass tolerances for the gridded density of the sum
NEGATIVE_MASS_TOL = 1e-6
TOTAL_MASS_TOL = 1e-6
MIN_GRID = 1 << 14


class FisherMethod(enum.Enum):
    MAX_ANALYTIC = "max_analytic"
    SUM_FFT = "sum_fft"


class ResolutionError(RuntimeError):
    """A numerical grid or quadrature rule was too coarse for the density."""


@dataclass(frozen=True)
class ToyDensity:
    """A twice continuously differentiable density on [0, 1].

    Carries everything the estimators need in closed form: the density,
    its derivative and CDF, the score ratio p'/p, the first two central
    moments, and a sampler. Nothing is checked at construction: the
    fields must agree with one another; `tests/test_fisher.py` checks
    the built-in's mass, mean, variance and score moment.
    """

    name: str
    pdf: Callable[[ArrayLike], ArrayLike]
    pdf_deriv: Callable[[ArrayLike], ArrayLike]
    cdf: Callable[[ArrayLike], ArrayLike]
    score_ratio: Callable[[ArrayLike], ArrayLike]
    mean_mu: float
    var_sigma2: float
    sampler: Callable[[np.random.Generator, object], np.ndarray]


@dataclass(frozen=True)
class FisherEstimate:
    dim: int
    theta: float
    value: float
    target: float
    method: FisherMethod


def _beta33_pdf(x: ArrayLike) -> ArrayLike:
    x = np.asarray(x, dtype=np.float64)
    return np.where((x >= 0.0) & (x <= 1.0), 30.0 * x * x * (1.0 - x) * (1.0 - x), 0.0)


def _beta33_pdf_deriv(x: ArrayLike) -> ArrayLike:
    x = np.asarray(x, dtype=np.float64)
    return np.where((x >= 0.0) & (x <= 1.0), 60.0 * x * (1.0 - x) * (1.0 - 2.0 * x), 0.0)


def _beta33_cdf(x: ArrayLike) -> ArrayLike:
    xc = np.clip(np.asarray(x, dtype=np.float64), 0.0, 1.0)
    return 10.0 * xc**3 - 15.0 * xc**4 + 6.0 * xc**5


def _beta33_score_ratio(x: ArrayLike) -> ArrayLike:
    x = np.asarray(x, dtype=np.float64)
    return 2.0 / x - 2.0 / (1.0 - x)


BUILTIN_DENSITIES: dict[str, ToyDensity] = {
    "beta33": ToyDensity(
        name="beta33",
        pdf=_beta33_pdf,
        pdf_deriv=_beta33_pdf_deriv,
        cdf=_beta33_cdf,
        score_ratio=_beta33_score_ratio,
        mean_mu=0.5,
        var_sigma2=1.0 / 28.0,
        sampler=lambda rng, size: rng.beta(3.0, 3.0, size=size),
    )
}


def _check_theta(theta: float) -> None:
    if not 0.0 < theta < 1.0:
        raise ValueError("theta must lie in (0, 1)")


def limit_info_max(d: ToyDensity, theta: float) -> float:
    """Large-D information limit for the max observation.

    Computes Var(g(X)) / theta^2 with g(x) = (theta v x) * (p'/p)(theta v x):
    below theta the integrand is the constant theta * (p'/p)(theta), above
    it the score-ratio product cancels to x * p'(x) in the first moment and
    x^2 p'(x)^2 / p(x) in the second. Gauss-Legendre rules of 32 and 64
    nodes on [theta, 1], exact for a polynomial density such as Beta(3, 3),
    integrate those; ResolutionError if they differ by over 1e-10 relative.
    The check cannot see a kink within about 1e-4 above theta: no node
    of either rule falls between theta and such a kink.
    """
    _check_theta(theta)
    const = theta * float(d.score_ratio(theta))
    weight_below = float(d.cdf(theta))
    half = 0.5 * (1.0 - theta)
    moments = []
    for nodes in (32, 64):
        t, w = np.polynomial.legendre.leggauss(nodes)
        x = (1.0 - half) + half * t
        p = np.asarray(d.pdf(x), dtype=np.float64)
        dp = np.asarray(d.pdf_deriv(x), dtype=np.float64)
        second = np.where(p > 0.0, x * x * dp * dp / np.where(p > 0.0, p, 1.0), 0.0)
        moments.append(half * np.array([w @ (x * dp), w @ second]))
    coarse, fine = moments
    if not np.all(np.abs(fine - coarse) <= 1e-10 * np.abs(fine)):
        raise ResolutionError(f"moments above theta={theta:g} differ between 32 and 64 nodes")
    m1 = float(fine[0]) + const * weight_below
    m2 = float(fine[1]) + const * const * weight_below
    return (m2 - m1 * m1) / (theta * theta)


def info_sum_target(d: ToyDensity, theta: float, dim: int) -> float:
    """Asymptotic information of the sum observation: mu^2/(theta^4 sigma^2 D).

    Defined up to and including theta = 1 (no stretching).
    """
    if not 0.0 < theta <= 1.0:
        raise ValueError("theta must lie in (0, 1]")
    if dim < 2:
        raise ValueError("dim must be at least 2")
    return d.mean_mu**2 / (theta**4 * d.var_sigma2 * dim)


def _max_score(
    d: ToyDensity, theta: float, dim: int, y: np.ndarray
) -> np.ndarray:
    """Score of the max observation at theta, evaluated in closed form.

    The max density is the derivative of F(y)^(D-1) * F(theta*y); its
    theta-derivative only touches the scaled factor.
    """
    cdf = np.asarray(d.cdf(y))
    pdf = np.asarray(d.pdf(y))
    cdf_scaled = np.asarray(d.cdf(theta * y))
    pdf_scaled = np.asarray(d.pdf(theta * y))
    dpdf_scaled = np.asarray(d.pdf_deriv(theta * y))
    pow_two = cdf ** (dim - 2)
    pow_one = pow_two * cdf
    common = (dim - 1) * pow_two * pdf
    density = common * cdf_scaled + pow_one * theta * pdf_scaled
    deriv = common * y * pdf_scaled + pow_one * (pdf_scaled + theta * y * dpdf_scaled)
    return deriv / density


def estimate_info_max(
    d: ToyDensity,
    theta: float,
    dim: int,
    n_mc: int = 200_000,
    seed: int = 0,
) -> FisherEstimate:
    """Monte Carlo information of the max observation at finite D.

    Draws the max of D-1 plain values and one value stretched by
    1/theta, evaluates the analytic score there, and reports the sample
    variance of the score. Deterministic in the seed (fixed chunking).
    """
    _check_theta(theta)
    if dim < 2:
        raise ValueError("dim must be at least 2")
    if n_mc < 2:
        raise ValueError("n_mc must be at least 2")
    rng = np.random.default_rng(seed)
    # bound the (chunk, dim-1) sample block to ~4M draws
    chunk = max(1, (1 << 22) // (dim - 1))
    ys = np.empty(n_mc)
    filled = 0
    while filled < n_mc:
        m = min(chunk, n_mc - filled)
        plain = d.sampler(rng, (m, dim - 1)).max(axis=1)
        scaled = d.sampler(rng, m) / theta
        ys[filled : filled + m] = np.maximum(plain, scaled)
        filled += m
    scores = _max_score(d, theta, dim, ys)
    value = float(np.var(scores, ddof=1))
    return FisherEstimate(
        dim=dim,
        theta=theta,
        value=value,
        target=limit_info_max(d, theta),
        method=FisherMethod.MAX_ANALYTIC,
    )


def _sum_density_pmf(
    d: ToyDensity, theta_scaled: float, base_power: np.ndarray, xs: np.ndarray, grid_n: int
) -> np.ndarray:
    """PMF of the sum on the grid for a given scale of the odd component."""
    scaled = theta_scaled * np.asarray(d.pdf(theta_scaled * xs))
    total = scaled.sum()
    if total <= 0:
        raise ResolutionError("scaled component has no mass on the grid")
    scaled /= total
    pmf = np.fft.irfft(base_power * np.fft.rfft(scaled), n=grid_n)
    return pmf


def estimate_info_sum(
    d: ToyDensity,
    theta: float,
    dim: int,
    grid_n: int = 1 << 17,
    dtheta: Optional[float] = None,
) -> FisherEstimate:
    """Information of the sum observation via its gridded density.

    The density of the sum is the convolution of D-1 copies of p with
    the scaled density, computed spectrally on a uniform grid over
    [0, D-1+1/theta]. The score is a central finite difference of the
    log-density in theta; the information is the score-squared integral
    against the density. Raises ResolutionError when the grid is too
    coarse (negative ringing mass above 1e-6 or total mass off by more
    than 1e-6).
    """
    _check_theta(theta)
    if dim < 2:
        raise ValueError("dim must be at least 2")
    if grid_n < MIN_GRID or grid_n & (grid_n - 1):
        raise ValueError(f"grid_n must be a power of two >= {MIN_GRID}")
    if dtheta is None:
        dtheta = 1e-4 * theta
    if not 0.0 < dtheta < theta:
        raise ValueError("dtheta must be positive and small against theta")
    span = (dim - 1) + 1.0 / theta
    step = span / grid_n
    xs = np.arange(grid_n) * step
    base = np.asarray(d.pdf(xs))
    base_total = base.sum()
    if base_total <= 0:
        raise ResolutionError("base density has no mass on the grid")
    base = base / base_total
    base_power = np.fft.rfft(base) ** (dim - 1)
    pmf = _sum_density_pmf(d, theta, base_power, xs, grid_n)
    negative_mass = float(-pmf[pmf < 0].sum())
    if negative_mass > NEGATIVE_MASS_TOL:
        raise ResolutionError(
            f"negative density mass {negative_mass:.3g} exceeds {NEGATIVE_MASS_TOL}"
        )
    pmf = np.clip(pmf, 0.0, None)
    total = float(pmf.sum())
    if abs(total - 1.0) > TOTAL_MASS_TOL:
        raise ResolutionError(f"total mass {total} off unity beyond {TOTAL_MASS_TOL}")
    pmf_hi = np.clip(_sum_density_pmf(d, theta + dtheta, base_power, xs, grid_n), 0.0, None)
    pmf_lo = np.clip(_sum_density_pmf(d, theta - dtheta, base_power, xs, grid_n), 0.0, None)
    # keep only grid points carrying real mass in all three densities;
    # the excluded ringing-level tails carry ~1e-12 of the weight
    floor = pmf.max() * 1e-12
    valid = (pmf > floor) & (pmf_hi > floor) & (pmf_lo > floor)
    score = (np.log(pmf_hi[valid]) - np.log(pmf_lo[valid])) / (2.0 * dtheta)
    value = float((score * score * pmf[valid]).sum())
    return FisherEstimate(
        dim=dim,
        theta=theta,
        value=value,
        target=info_sum_target(d, theta, dim),
        method=FisherMethod.SUM_FFT,
    )
