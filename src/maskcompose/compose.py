"""Log-space composition of categorical distributions.

One unconditional distribution and n conditional distributions over the same
K categories are combined as

    log q(x) = log p(x) + sum_i w_i * (log p(x | c_i) - log p(x))

followed by renormalization. With all w_i = 1 this is the product-of-experts
posterior; w_i > 1 emphasizes a condition, 0 < w_i < 1 de-emphasizes it and
w_i < 0 negates it. Inputs are renormalized and floor-clamped before any
arithmetic so that zero-probability categories cannot blow up under negative
weights and so that adding a constant to any input leaves the result
unchanged.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import AllMassZero, ShapeMismatch

DEFAULT_LOGP_FLOOR = -30.0
DEFAULT_TEMPERATURE = 0.9


def normalize_logits(logits: np.ndarray) -> np.ndarray:
    """Subtract logsumexp from a 1-D float64 log vector, validating the input.

    Raises AllMassZero when no finite entry remains (all -inf, or NaN
    present). The argmax is preserved. One max pass covers all three input
    checks: NaN poisons the max, +inf dominates it, and an all--inf vector
    leaves it at -inf. The reductions are ndarray methods: the np.max and
    np.sum wrappers cost more than the sums of the short vectors this runs on.
    """
    m = float(logits.max())
    if math.isnan(m):
        raise AllMassZero("input contains NaN")
    if m == math.inf:
        raise ShapeMismatch("log-probabilities cannot be +inf")
    if m == -math.inf:
        raise AllMassZero("every entry is -inf")
    return logits - (m + math.log(float(np.exp(logits - m).sum())))


def compose_logits(
    uncond: np.ndarray,
    conds: Sequence[np.ndarray],
    weights: Sequence[float],
) -> np.ndarray:
    """Weighted product-of-experts combination of 1-D float64 log vectors.

    Each input is normalized (making the result invariant to constant shifts
    of any input) and clamped at DEFAULT_LOGP_FLOOR before the weighted
    log-ratio sum. With no conditionals the result is the normalized
    unconditional vector. Temperature is never applied here; samplers apply
    it to the result as normalize_logits(out / T).
    """
    if uncond.ndim != 1 or uncond.size < 1:
        raise ShapeMismatch(f"expected a 1-D vector with K >= 1, got shape {uncond.shape}")
    if len(conds) != len(weights):
        raise ShapeMismatch(f"{len(conds)} conditionals vs {len(weights)} weights")
    u = np.maximum(normalize_logits(uncond), DEFAULT_LOGP_FLOOR)
    out = u.copy()
    for cond, w in zip(conds, weights):
        if cond.shape != u.shape:
            raise ShapeMismatch(f"conditional shape {cond.shape} vs unconditional {u.shape}")
        c = np.maximum(normalize_logits(cond), DEFAULT_LOGP_FLOOR)
        out += w * (c - u)
    if not np.isfinite(out).any():
        raise AllMassZero("composed vector has no finite entry after clamping")
    return normalize_logits(out)
