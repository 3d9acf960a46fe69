"""Two-sample law comparisons shared by the kernel tests."""

from __future__ import annotations

import numpy as np
from scipy import stats

MIN_BIN = 60     # draws per pooled chi-square bin, all samples together


def chi2_pvalue(*samples) -> float:
    """p-value of a chi-square test that integer samples share one law.

    Adjacent values are pooled until each bin holds at least MIN_BIN draws
    in all; 1.0 when fewer than two bins remain.
    """
    values = np.unique(np.concatenate(samples))
    counts = np.array([[np.sum(s == v) for v in values] for s in samples])
    bins, acc = [], np.zeros(len(samples), dtype=int)
    for col in counts.T:
        acc = acc + col
        if acc.sum() >= MIN_BIN:
            bins.append(acc)
            acc = np.zeros(len(samples), dtype=int)
    if bins:
        bins[-1] = bins[-1] + acc
    if len(bins) < 2:
        return 1.0
    return float(stats.chi2_contingency(np.array(bins).T).pvalue)
