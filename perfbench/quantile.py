"""The Harrell-Davis quantile estimate, without scipy.

A plain sample quantile is one order statistic: when the item times have a
gap at that rank, it jumps across the gap from seed to seed and with every
noisy item.  The Harrell-Davis estimate is a weighted mean of all order
statistics, weighted by a Beta((n+1)q, (n+1)(1-q)) distribution around
rank qn, which estimates the same quantile with less variance.
"""

from __future__ import annotations

import math

_TINY = 1e-300


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta function (modified Lentz)."""
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c, d = 1.0, 1.0 - qab * x / qap
    d = 1.0 / (d if abs(d) > _TINY else _TINY)
    h = d
    for m in range(1, 10_000):
        m2 = 2 * m
        for aa in (
            m * (b - m) * x / ((qam + m2) * (a + m2)),
            -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2)),
        ):
            d = 1.0 + aa * d
            d = 1.0 / (d if abs(d) > _TINY else _TINY)
            c = 1.0 + aa / c
            c = c if abs(c) > _TINY else _TINY
            h *= d * c
        if abs(d * c - 1.0) < 1e-13:
            break
    return h


def beta_cdf(x: float, a: float, b: float) -> float:
    """The regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b) + a * math.log(x) + b * math.log1p(-x)
    )
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def harrell_davis(samples: list[float], q: float) -> float:
    """Harrell-Davis estimate of quantile q (0 < q < 1) of the samples."""
    s = sorted(samples)
    n = len(s)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    cdf = [beta_cdf(i / n, a, b) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * x for i, x in enumerate(s))
