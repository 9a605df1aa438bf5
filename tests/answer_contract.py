"""What a model's predict answers, checked against the dict-based oracles.

An answer is one read-only (L, K) float64 array. At a masked position its
row is the model's log-probability vector; at a fixed position it is the
exact point mass on the fixed token: 0 there and -inf elsewhere. The oracles
in tests/ answer a dict of the masked rows only.
"""

from __future__ import annotations

import numpy as np

from maskcompose.sampler import MASK


def masked_rows(answer: np.ndarray, tokens: np.ndarray) -> dict[int, bytes]:
    """The bytes of an answer's masked rows, keyed by position."""
    return {p: answer[p].tobytes() for p in np.flatnonzero(tokens == MASK).tolist()}


def oracle_answer(tokens: np.ndarray, rows: dict, vocab_size: int) -> np.ndarray:
    """The (L, K) answer an oracle's dict of masked rows stands for."""
    values = tokens.tolist()
    assert sorted(rows) == [p for p, v in enumerate(values) if v == MASK]
    out = np.full((len(values), vocab_size), -np.inf)
    for p, v in enumerate(values):
        if v == MASK:
            out[p] = rows[p]
        else:
            out[p, v] = 0.0
    return out


def assert_answer(answer, tokens: np.ndarray, rows: dict, vocab_size: int) -> None:
    """answer keeps the contract and equals the oracle's rows bit for bit."""
    assert isinstance(answer, np.ndarray)
    assert answer.shape == (tokens.size, vocab_size)
    assert answer.dtype == np.float64
    assert not answer.flags.writeable
    want = oracle_answer(tokens, rows, vocab_size)
    for p in range(tokens.size):
        assert answer[p].tobytes() == want[p].tobytes(), (tokens.tolist(), p)
