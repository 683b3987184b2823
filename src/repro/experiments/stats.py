"""Statistics helpers for the evaluation and the experiment platform.

The paper reports Mann-Whitney U p-values over 5 independent trials per
configuration (§5.4); :func:`mann_whitney_p` wraps scipy's exact test
the same way.  The experiment platform (``repro.experiments.platform``)
additionally ranks arms with the Vargha-Delaney Â₁₂ effect size and
bootstrap confidence intervals — the toolkit fuzzbench's ``stat_tests``
applies to fuzzer comparisons.
"""

from __future__ import annotations

import random


def mann_whitney_p(sample_a: list[float], sample_b: list[float]) -> float:
    """Two-sided Mann-Whitney U p-value; 1.0 when degenerate."""
    if not sample_a or not sample_b:
        return 1.0
    if set(sample_a) == set(sample_b) and len(set(sample_a)) == 1:
        return 1.0
    from scipy import stats  # deferred: ~1 s of import, needed only here

    try:
        result = stats.mannwhitneyu(sample_a, sample_b, alternative="two-sided")
    except ValueError:
        return 1.0
    return float(result.pvalue)


def mann_whitney_u(sample_a: list[float], sample_b: list[float]) -> float:
    """The U statistic for *sample_a*: wins plus half-credit for ties.

    ``U_a = #{(a, b) : a > b} + 0.5 * #{(a, b) : a == b}`` over all
    ``len(a) * len(b)`` cross pairs — the direct-count definition, which
    for trial-sized samples (the paper uses 5 per configuration) is both
    exact and hand-checkable.  ``U_a + U_b = len(a) * len(b)``.
    """
    wins = 0.0
    for a in sample_a:
        for b in sample_b:
            if a > b:
                wins += 1.0
            elif a == b:
                wins += 0.5
    return wins


def vargha_delaney_a12(sample_a: list[float], sample_b: list[float]) -> float:
    """Vargha-Delaney Â₁₂: P(a > b) + 0.5 * P(a == b).

    The standard nonparametric effect size for fuzzer comparisons
    (Arcuri & Briand's recommendation): the probability that a random
    trial from *sample_a* beats one from *sample_b*, with ties split.
    0.5 means no effect; 1.0 means *a* always wins; by convention
    |Â₁₂ - 0.5| >= 0.21 is a "large" effect.  Returns 0.5 when either
    sample is empty (no evidence either way).
    """
    if not sample_a or not sample_b:
        return 0.5
    return mann_whitney_u(sample_a, sample_b) / (len(sample_a) * len(sample_b))


def a12_magnitude(a12: float) -> str:
    """Vargha-Delaney's verbal magnitude scale for an Â₁₂ value."""
    scaled = abs(a12 - 0.5)
    if scaled >= 0.21:
        return "large"
    if scaled >= 0.14:
        return "medium"
    if scaled >= 0.06:
        return "small"
    return "negligible"


def _quantile(ordered: list[float], q: float) -> float:
    """Linear-interpolation quantile of an already sorted sample."""
    if not ordered:
        return 0.0
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    fraction = position - low
    return ordered[low] * (1.0 - fraction) + ordered[high] * fraction


def bootstrap_ci(
    values: list[float],
    statistic=None,
    n_boot: int = 2000,
    confidence: float = 0.95,
    seed: int = 0,
) -> tuple[float, float]:
    """Percentile bootstrap confidence interval for *statistic*.

    Resamples *values* with replacement ``n_boot`` times using a local
    ``random.Random(seed)`` — fully deterministic for a fixed (values,
    seed) pair, which is what makes platform reports bit-reproducible —
    and returns the (lo, hi) percentile interval of the resampled
    statistic (default: :func:`median`).  Degenerate inputs collapse:
    an empty sample yields (0.0, 0.0), a single value (v, v).
    """
    if statistic is None:
        statistic = median
    if not values:
        return (0.0, 0.0)
    if len(values) == 1 or len(set(values)) == 1:
        point = float(statistic(values))
        return (point, point)
    rng = random.Random(seed)
    n = len(values)
    resampled = sorted(
        statistic([values[rng.randrange(n)] for _ in range(n)])
        for _ in range(n_boot)
    )
    alpha = (1.0 - confidence) / 2.0
    return (_quantile(resampled, alpha), _quantile(resampled, 1.0 - alpha))


def mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def median(values: list[float]) -> float:
    """The paper reports medians over 5 trials (§5.4)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def stddev(values: list[float]) -> float:
    """Sample standard deviation (Bessel-corrected); 0.0 when n < 2."""
    if len(values) < 2:
        return 0.0
    centre = mean(values)
    return (
        sum((v - centre) ** 2 for v in values) / (len(values) - 1)
    ) ** 0.5


def format_count(value: float) -> str:
    """Format a test-case count the way Table 5 does (e.g. ``379M``)."""
    if value >= 1e9:
        return f"{value / 1e9:.2f}B"
    if value >= 1e6:
        return f"{value / 1e6:.0f}M"
    if value >= 1e3:
        return f"{value / 1e3:.0f}K"
    return f"{value:.0f}"


def format_table(headers: list[str], rows: list[list[str]]) -> str:
    """Fixed-width text table (the benches print these)."""
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def fmt(cells: list[str]) -> str:
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells))
    lines = [fmt(headers), fmt(["-" * w for w in widths])]
    lines.extend(fmt(row) for row in rows)
    return "\n".join(lines)
