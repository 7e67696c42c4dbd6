"""Exact convex-geometry quantities: normalization constants, volume radii,
Gaussian norm constants, and the density-comparison ratio.

Everything is evaluated in log space with log-gamma; the normalization
constant of the induced density underflows float64 catastrophically beyond
n of about 10, and the formulas here must stay finite up to n = 512.
"""

from __future__ import annotations

import math

__all__ = [
    "log_gamma_m",
    "gamma_m",
    "log_znorm",
    "log_ball_volume",
    "vrad_states",
    "density_comparison_ratio",
    "separable_volume_bounds",
    "log_flag_manifold_factor",
    "log_weyl_chamber_znorm",
]


def log_gamma_m(m: int) -> float:
    """log of E|G| for a standard Gaussian in R^m."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return 0.5 * math.log(2.0) + math.lgamma((m + 1) / 2.0) - math.lgamma(m / 2.0)


def gamma_m(m: int) -> float:
    """E|G| for a standard Gaussian in R^m; satisfies sqrt(m-1) <= . <= sqrt(m)."""
    val = math.exp(log_gamma_m(m))
    assert math.sqrt(max(m - 1, 0)) <= val <= math.sqrt(m) * (1 + 1e-12)
    return val


def log_znorm(n: int, s: float) -> float:
    """log of the normalization constant of the induced-state density.

    Z(n, s) = sqrt(n) (2 pi)^{n(n-1)/2} / Gamma(sn) * prod_{k=s-n+1}^{s} Gamma(k),
    evaluated via log-gamma so real s >= n is supported. Z(n, n) is the
    Hilbert-Schmidt volume of the set of states on C^n.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if s < n:
        raise ValueError(f"normalization requires s >= n, got s={s}, n={n}")
    return (
        0.5 * math.log(n)
        + (n * (n - 1) / 2.0) * math.log(2.0 * math.pi)
        - math.lgamma(s * n)
        + math.fsum(math.lgamma(s - k) for k in range(n))  # Gamma(s), ..., Gamma(s-n+1)
    )


def log_ball_volume(m: int) -> float:
    """log volume of the unit Euclidean ball in R^m."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return (m / 2.0) * math.log(math.pi) - math.lgamma(m / 2.0 + 1.0)


def vrad_states(n: int) -> float:
    """Volume radius of the set of states on C^n.

    Equals 1/sqrt(2) at n = 2 (the Bloch ball) and behaves like
    e^{-1/4} / sqrt(n) for large n.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    m = n * n - 1
    return math.exp((log_znorm(n, n) - log_ball_volume(m)) / m)


def density_comparison_ratio(n: int, s: float) -> float:
    """Normalized constant in the comparison of induced and uniform measures.

    Returns (n^{-n(s-n)} Z(n,n)/Z(n,s))^{1/(n^2-1)} / sqrt(s/n), computed in
    log space. Equals 1 at s = n; boundedness above and below over wide
    (n, s) grids is what makes measure-comparison arguments work.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    m = n * n - 1
    log_base = (-n * (s - n) * math.log(n) + log_znorm(n, n) - log_znorm(n, s)) / m
    return math.exp(log_base - 0.5 * math.log(s / n))


def separable_volume_bounds(k: int, d: int) -> tuple[float, float, float]:
    """Volume-ratio upper bounds for k-partite separable states on (C^d)^xk.

    Returns (bound_i, bound_ii, beta_d) where, with n = d^k and natural logs,
      bound_i  = (k log k)^{1/2} n^{-1/2 + 1/(2k)},
      bound_ii = (d k log k / n^{1 + beta_d})^{1/2},
      beta_d   = log_d(1 + 1/d) - d^{-2} log_d(d + 1).
    Universal prefactors are not included.
    """
    if k < 2 or d < 2:
        raise ValueError("need k >= 2 and d >= 2")
    n = float(d) ** k
    klogk = k * math.log(k)
    beta_d = math.log(1.0 + 1.0 / d) / math.log(d) - math.log(d + 1.0) / (d * d * math.log(d))
    bound_i = math.sqrt(klogk) * n ** (-0.5 + 1.0 / (2 * k))
    bound_ii = math.sqrt(d * klogk / n ** (1.0 + beta_d))
    return bound_i, bound_ii, beta_d


def log_flag_manifold_factor(n: int) -> float:
    """log of (2 pi)^{n(n-1)/2} / prod_{j=1}^{n} Gamma(j).

    Conversion factor between the state-space normalization Z(n, s) and the
    corresponding normalization for eigenvalue densities on the ordered
    simplex (the measure of the flag manifold of eigenbases).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return (n * (n - 1) / 2.0) * math.log(2.0 * math.pi) - math.fsum(
        math.lgamma(j) for j in range(1, n + 1)
    )


def log_weyl_chamber_znorm(n: int, s: float) -> float:
    """Normalization of the induced eigenvalue density on the ordered simplex."""
    return log_znorm(n, s) - log_flag_manifold_factor(n)
