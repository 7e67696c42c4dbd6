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
    refuses no samples and gives one, whose standard error is undefined, a
    NaN one: JSON carries it as the token NaN (Python's json writes and reads
    it) and CSV as `nan`."""

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


class _Sums:
    """Exact sums of float64 values, merged a chunk at a time: the count, and
    sum x and sum x**2 as Python ints in units of 2**-1136 and 2**-2272 (each
    value's np.frexp mantissa, summed per block of 8 exponents), so estimates
    depend on the values alone, never on their chunks. Infinities and NaN add
    to a float sum, which is then the mean, as np.mean's would be."""

    def __init__(self, chunks=()):
        self.n, self.s1, self.s2, self.odd = 0, 0, 0, 0.0
        for values in chunks:
            self.add(values)

    def add(self, values) -> None:
        x = np.asarray(values, dtype=float).ravel()
        finite = np.isfinite(x)
        self.n += x.size
        self.odd = sum(x[~finite].tolist(), self.odd)
        f, e = np.frexp(x[finite])
        m, k = (f * 2.0 ** 53).astype(np.int64) << (e & 7), e >> 3  # x = m 2**(8k - 53)
        for j in set(k.tolist()):
            mj = m[k == j].tolist()
            self.s1 += sum(mj) << 8 * j + 1083
            self.s2 += sum(v * v for v in mj) << 2 * (8 * j + 1083)

    def estimate(self, seed: str = "") -> Estimate:
        """The mean, rounded once, and its standard error from the exact
        n sum x**2 - (sum x)**2: NaN for one value or a non-finite one."""
        n = self.n
        if n < 1:
            raise ValueError("an estimate needs at least one sample")
        var = (n * self.s2 - self.s1 ** 2 << 128) // max(n * n * (n - 1), 1)
        stderr = math.nan if self.odd or n == 1 else math.isqrt(var) / (1 << 1200)
        return Estimate(self.odd or self.s1 / (n << 1136), stderr, n, seed)


def from_samples(samples, seed: str = "") -> Estimate:
    return _Sums([samples]).estimate(seed)


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
