"""Monte-Carlo reporting helpers: estimates with standard errors and Wilson
binomial intervals."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["Estimate", "from_samples", "wilson_interval"]

Z95 = 1.959963984540054


@dataclass(frozen=True)
class Estimate:
    """Sample mean with its standard error and provenance. `from_samples`
    gives fewer than two samples, whose standard error is undefined, a NaN
    one: JSON carries it as the token NaN (Python's json writes and reads it)
    and CSV as `nan`."""

    mean: float
    stderr: float
    trials: int
    seed: str = ""

    def __post_init__(self):
        if self.stderr < 0:
            raise ValueError("stderr must be >= 0")

    def interval(self, z: float = 3.0) -> tuple[float, float]:
        return self.mean - z * self.stderr, self.mean + z * self.stderr

    def compatible(self, other: "Estimate", z: float = 3.0) -> bool:
        """True when the two means differ by at most z combined standard errors."""
        gap = abs(self.mean - other.mean)
        return gap <= z * math.hypot(self.stderr, other.stderr)


def from_samples(samples, seed: str = "") -> Estimate:
    x = np.asarray(samples, dtype=float)
    n = x.size
    stderr = float(x.std(ddof=1) / math.sqrt(n)) if n > 1 else math.nan
    return Estimate(float(x.mean()), stderr, n, seed)


def wilson_interval(successes: int, trials: int, z: float = Z95) -> tuple[float, float]:
    """Wilson 95% score interval for a binomial proportion."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not 0 <= successes <= trials:
        raise ValueError("successes out of range")
    p = successes / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (p + z2 / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + z2 / (4 * trials * trials)) / denom
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == trials else min(1.0, center + half)
    return lo, hi
