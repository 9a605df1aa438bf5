"""Reference exact conditional model: a boolean mask over row-major support.

The package's ExactConditionalModel keeps the support column-major, narrows
the compatible row indices one fixed slot at a time, starting from the last
state's rows when the new state keeps every token of it, and holds its
answers in a bounded memo. This module keeps the direct formulation: the prior times
each condition's likelihood over the whole support, a boolean mask built
from every fixed slot, and one bincount per masked position over the masked
rows, with no memo. Tests check the fast path against it bit for bit.
"""

from __future__ import annotations

import numpy as np

from maskcompose.errors import AllMassZero
from maskcompose.sampler import MASK
from maskcompose.worlds import _iter_conditions


class ExactOracle:
    def __init__(self, world):
        self.world = world
        self.vocab_size = world.vocab_size
        grids, logp = world.support()
        self._grids = grids
        self._prior = np.exp(logp)

    def _likelihood(self, condition) -> np.ndarray:
        w = self._prior
        for cond in _iter_conditions(condition):
            with np.errstate(over="ignore"):
                w = w * np.exp(self.world.condition_loglik(cond))
        return w

    def predict(self, tokens: np.ndarray, condition=None) -> dict[int, np.ndarray]:
        fixed = np.flatnonzero(tokens != MASK)
        sel = np.ones(self._grids.shape[0], dtype=bool)
        for p in fixed:
            sel &= self._grids[:, p] == tokens[p]
        w = self._likelihood(condition)[sel]
        total = float(w.sum())
        if not (total > 0.0):
            if not sel.any() or condition is None:
                raise AllMassZero("no support state agrees with the unmasked slots")
            return self.predict(tokens, None)
        sub = self._grids[sel]
        out = {}
        with np.errstate(divide="ignore"):
            for p in np.flatnonzero(tokens == MASK):
                marg = np.bincount(sub[:, p], weights=w, minlength=self.vocab_size)
                out[int(p)] = np.log(marg / total)
        return out
