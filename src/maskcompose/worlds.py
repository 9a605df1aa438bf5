"""Enumerable miniature scene worlds and their exact oracles.

Two world families share one interface. Scene worlds place up to max_objects
typed objects (shape, color) on a small cell grid, one token per cell, and
weight all valid scenes uniformly; conditions are hard predicates on the
token grid (object at a cell, attribute present, pairwise relation).
Factorized worlds draw every position independently from per-position prior
tables; a condition there is an event whose likelihood is proportional to a
product of per-cell table ratios, so positions stay independent given any
single condition and the product-of-experts combination of per-position
conditionals is exact for conditions on disjoint cells.

Everything an oracle needs is brute force: the full support is enumerated
(capped), posteriors are computed by reweighting and renormalizing that
enumeration, and the exact conditional model marginalizes over all support
states consistent with the unmasked slots of a partial grid. Enumeration
and conditions are array code: a scene world writes its support one
object-count block at a time into one preallocated (S, L) array, and each
world evaluates a condition over N token grids at once with one predicate,
which scores the whole support for a likelihood and a single sampled grid
alike.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    AllMassZero,
    EmptyIntersection,
    InvalidTable,
    StateSpaceTooLarge,
    ValidationError,
)
from .memo import Memo
from .sampler import MASK

STATE_SPACE_CAP = 10_000_000
# grids hold int16 tokens, so ids run from 0 to 32767
VOCAB_CAP = 1 << 15
EMPTY_TOKEN = 0
TABLE_CONCENTRATION = 2.0  # of build_random_factorized_world's Dirichlet tables

KIND_OBJECT_AT_CELL = "object_at_cell"
KIND_ATTRIBUTE = "attribute_present"
KIND_RELATION = "relation"
KIND_CELL_TABLE = "cell_table"

RELATIONS = ("left_of", "above")
ATTR_KINDS = ("shape", "color")

UNCONDITIONAL_KEY = ("unconditional",)


@dataclass(frozen=True)
class ConditionSpec:
    """A typed constraint; payload layout depends on kind.

    object_at_cell: (col, row)
    attribute_present: (attr_kind, attr_id) with attr_kind "shape" or "color"
    relation: (relation, subject_attr_kind, subject_attr_id,
               object_attr_kind, object_attr_id)
    cell_table: (name,) referring to a table set registered on the world

    key() is computed once, at construction, and kept outside the dataclass
    fields, so ==, hash, repr and asdict see only kind and payload.
    """

    kind: str
    payload: tuple

    def __post_init__(self):
        object.__setattr__(self, "_key", (self.kind,) + tuple(self.payload))

    def key(self) -> tuple:
        return self._key


def object_at_cell(col: int, row: int) -> ConditionSpec:
    return ConditionSpec(KIND_OBJECT_AT_CELL, (int(col), int(row)))


def attribute_present(attr_kind: str, attr_id: int) -> ConditionSpec:
    if attr_kind not in ATTR_KINDS:
        raise ValueError(f"unknown attribute kind {attr_kind!r}")
    return ConditionSpec(KIND_ATTRIBUTE, (attr_kind, int(attr_id)))


def relation(
    rel: str, subject_attr: tuple[str, int], object_attr: tuple[str, int]
) -> ConditionSpec:
    if rel not in RELATIONS:
        raise ValueError(f"unknown relation {rel!r}")
    sk, si = subject_attr
    ok, oi = object_attr
    if sk not in ATTR_KINDS or ok not in ATTR_KINDS:
        raise ValueError("relation endpoints must be (attr_kind, attr_id) pairs")
    return ConditionSpec(KIND_RELATION, (rel, sk, int(si), ok, int(oi)))


def cell_table(name: str) -> ConditionSpec:
    return ConditionSpec(KIND_CELL_TABLE, (str(name),))


class JointPrompt(tuple):
    """A tuple of specs asked as one opaque joint prompt.

    key() is order independent, so {a, b} and {b, a} address the same
    counts, and, like a ConditionSpec's, it is computed once, at
    construction. The prompt equals and hashes as the plain tuple of its
    specs; copies and pickles keep its type and key.
    """

    def __new__(cls, specs=()):
        self = super().__new__(cls, specs)
        self._key = ("joint",) + tuple(sorted(c.key() for c in self))
        return self

    def key(self) -> tuple:
        return self._key


def cond_key(condition) -> tuple:
    """Canonical hashable key for None, one spec, or a set of specs.

    A set of specs is one opaque joint prompt, keyed as JointPrompt keys it;
    a JointPrompt hands back the key it keeps.
    """
    if condition is None:
        return UNCONDITIONAL_KEY
    if isinstance(condition, (ConditionSpec, JointPrompt)):
        return condition.key()
    return JointPrompt(condition).key()


def _iter_conditions(condition) -> tuple:
    if condition is None:
        return ()
    if isinstance(condition, ConditionSpec):
        return (condition,)
    return tuple(condition)


@dataclass
class Posterior:
    """Exact distribution over token grids: support rows plus probabilities."""

    grids: np.ndarray  # (S, L) int16
    probs: np.ndarray  # (S,) float64, sums to 1
    vocab_size: int

    def marginals(self) -> np.ndarray:
        """Per-position token marginals, shape (L, K): one bincount per
        position, which adds the probabilities in row order."""
        k = self.vocab_size
        return np.array([np.bincount(col, weights=self.probs, minlength=k) for col in self.grids.T])


class WorldJoint:
    """Base for exhaustively enumerable worlds.

    Subclasses fill in the support (all token grids with positive prior
    probability) and one predicate over (N, L) token grids. A predicate's
    log-likelihood over the support is 0 where it holds and -inf elsewhere;
    factorized worlds add the soft likelihoods of their cell_table
    conditions.
    """

    grid_w: int
    grid_h: int
    vocab_size: int

    def __init__(self):
        self._support: tuple[np.ndarray, np.ndarray] | None = None
        self._loglik_cache: dict[tuple, np.ndarray] = {}

    @property
    def length(self) -> int:
        return self.grid_w * self.grid_h

    # subclass surface -----------------------------------------------------
    def _build_support(self) -> tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError

    def predicate(self, grids: np.ndarray, cond: ConditionSpec) -> np.ndarray:
        """Which rows of the (N, L) token grids satisfy cond, as (N,) bools;
        one bool for a single (L,) grid.

        Raises ValidationError when the world cannot evaluate cond.
        """
        raise NotImplementedError

    def condition_pool(self) -> list[ConditionSpec]:
        raise NotImplementedError

    def sample_training_pairs(
        self, rng: np.random.Generator, n: int
    ) -> tuple[np.ndarray, list[ConditionSpec], np.ndarray]:
        """n (grid, condition) training pairs as (n, L) grids, the distinct
        condition specs in order of first appearance, and each sample's
        index into them as (n,) ints, -1 for a sample without a condition."""
        raise NotImplementedError

    # shared machinery ------------------------------------------------------
    def support(self) -> tuple[np.ndarray, np.ndarray]:
        """(grids, logp) rows of every state with positive prior probability."""
        if self._support is None:
            grids, logp = self._build_support()
            total = np.logaddexp.reduce(logp)
            if abs(total) > 1e-9:
                raise InvalidTable(f"prior does not normalize: logsumexp {total}")
            self._support = (grids, logp - total)
        return self._support

    def condition_loglik(self, cond: ConditionSpec) -> np.ndarray:
        key = cond.key()
        if key not in self._loglik_cache:
            self._loglik_cache[key] = self._condition_loglik(cond)
        return self._loglik_cache[key]

    def _condition_loglik(self, cond: ConditionSpec) -> np.ndarray:
        """A hard predicate: log-likelihood 0 where it holds, -inf elsewhere."""
        return np.where(self.predicate(self.support()[0], cond), 0.0, -np.inf)

    def _cell(self, cond: ConditionSpec) -> int:
        """Flat index of an object_at_cell condition's cell."""
        col, row = cond.payload
        if not (0 <= col < self.grid_w and 0 <= row < self.grid_h):
            raise ValidationError(
                f"condition {cond.key()} names a cell outside the "
                f"{self.grid_w}x{self.grid_h} grid"
            )
        return row * self.grid_w + col

    def check_conditions(self, grid: np.ndarray, conds: Sequence[ConditionSpec]) -> np.ndarray:
        """Satisfaction bitmap for a fully unmasked grid, one bool per
        condition; for an (N, L) block of grids, one row of N per condition."""
        grid = np.asarray(grid)
        if bool((grid == MASK).any()):
            raise ValueError("check_conditions requires a fully unmasked grid")
        return np.array([self.predicate(grid, c) for c in conds], dtype=bool)

    def enumerate_posterior(self, conds: Sequence[ConditionSpec]) -> Posterior:
        """Exact P(grid | all conditions) by reweighting the enumerated joint."""
        grids, logp = self.support()
        logw = logp.astype(np.float64, copy=True)
        for c in conds:
            logw = logw + self.condition_loglik(c)
        with np.errstate(over="ignore"):
            w = np.exp(logw)
        total = float(w.sum())
        if not (total > 0.0):
            raise EmptyIntersection(
                f"no state satisfies all {len(conds)} conditions together"
            )
        keep = w > 0.0
        return Posterior(grids[keep], w[keep] / total, self.vocab_size)

    def prior_sample(self, rng: np.random.Generator, n: int = 1) -> np.ndarray:
        grids, logp = self.support()
        idx = rng.choice(grids.shape[0], size=n, p=np.exp(logp))
        return grids[idx]


def _by_first_appearance(labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct non-negative labels in order of first appearance, and
    each label's index into them; label -1 gets index -1."""
    values, first, inverse = np.unique(labels, return_index=True, return_inverse=True)
    n_absent = np.count_nonzero(values < 0)  # the absent label sorts first
    order = np.argsort(first[n_absent:]) + n_absent
    rank = np.full(values.size, -1, dtype=np.intp)
    rank[order] = np.arange(order.size)
    return values[order], rank[inverse]


def _check_support_cap(count: int):
    if count > STATE_SPACE_CAP:
        raise StateSpaceTooLarge(f"{count} states exceeds cap {STATE_SPACE_CAP}")


def _check_vocab(vocab_size: int):
    if vocab_size > VOCAB_CAP:
        raise StateSpaceTooLarge(
            f"a vocabulary of {vocab_size} tokens exceeds the int16 token cap of {VOCAB_CAP}"
        )


class SceneWorld(WorldJoint):
    """Uniform distribution over all placements of typed objects on a grid."""

    def __init__(
        self,
        grid_w: int,
        grid_h: int,
        n_shapes: int = 2,
        n_colors: int = 2,
        max_objects: int = 3,
        relational: bool = False,
    ):
        super().__init__()
        if min(grid_w, grid_h, n_shapes, n_colors) < 1 or max_objects < 0:
            raise ValueError("world dimensions must be positive")
        self.grid_w = int(grid_w)
        self.grid_h = int(grid_h)
        self.n_shapes = int(n_shapes)
        self.n_colors = int(n_colors)
        self.max_objects = int(max_objects)
        self.relational = bool(relational)
        self.vocab_size = 1 + self.n_shapes * self.n_colors
        _check_vocab(self.vocab_size)
        self.n_states = sum(
            math.comb(self.length, m) * (self.n_shapes * self.n_colors) ** m
            for m in range(min(self.max_objects, self.length) + 1)
        )
        _check_support_cap(self.n_states)
        # attribute id per token for each attribute kind; the empty token has none
        codes = np.arange(self.vocab_size - 1)
        self._attribute_ids = {
            "shape": np.concatenate(([-1], codes // self.n_colors)),
            "color": np.concatenate(([-1], codes % self.n_colors)),
        }
        # strict order of cells per relation: [p, q] holds when p lies before q
        cols, rows = np.arange(self.length) % self.grid_w, np.arange(self.length) // self.grid_w
        self._order = {
            "left_of": cols[:, None] < cols[None, :],
            "above": rows[:, None] < rows[None, :],
        }

    def params(self) -> dict:
        return {
            "kind": "scene",
            "grid_w": self.grid_w,
            "grid_h": self.grid_h,
            "n_shapes": self.n_shapes,
            "n_colors": self.n_colors,
            "max_objects": self.max_objects,
            "relational": self.relational,
        }

    def restrict(self, max_objects: int) -> "SceneWorld":
        """Same geometry and vocabulary, smaller object budget."""
        return SceneWorld(
            self.grid_w,
            self.grid_h,
            self.n_shapes,
            self.n_colors,
            max_objects,
            self.relational,
        )

    def _build_support(self):
        """Every scene, one block per object count m, in a fixed order.

        Block m runs over the m-cell sets in itertools.combinations order of
        the row-major cells (outer) and over the m-tuples of object types in
        itertools.product order (inner, last object fastest). Type i = shape *
        n_colors + color is token 1 + i.
        """
        length, n_types = self.length, self.n_shapes * self.n_colors
        grids = np.zeros((self.n_states, length), dtype=np.int16)
        start = 0
        for m in range(min(self.max_objects, length) + 1):
            n_sets, n_typings = math.comb(length, m), n_types**m
            cells = np.fromiter(
                itertools.chain.from_iterable(itertools.combinations(range(length), m)),
                dtype=np.intp,
                count=n_sets * m,
            ).reshape(n_sets, m)
            # rows of this block as (cell set, typing, position), a view of grids
            block = grids[start : start + n_sets * n_typings].reshape(n_sets, n_typings, length)
            typing, sets = np.arange(n_typings), np.arange(n_sets)
            for j in range(m):
                # object j's type is digit j of the typing index in base n_types
                block[sets, :, cells[:, j]] = 1 + typing // n_types ** (m - 1 - j) % n_types
            start += n_sets * n_typings
        return grids, np.full(self.n_states, -math.log(self.n_states))

    def token_attributes(self, token: int) -> tuple[int, int] | None:
        """(shape, color) of a token, or None for the empty cell."""
        if token == EMPTY_TOKEN:
            return None
        return (token - 1) // self.n_colors, (token - 1) % self.n_colors

    def _has_attribute(self, grids: np.ndarray, attr_kind: str, attr_id: int) -> np.ndarray:
        """Mask of the cells holding an object with the attribute, shaped like grids."""
        return (self._attribute_ids[attr_kind] == attr_id)[grids]

    def predicate(self, grids: np.ndarray, cond: ConditionSpec) -> np.ndarray:
        if cond.kind == KIND_OBJECT_AT_CELL:
            return grids[..., self._cell(cond)] != EMPTY_TOKEN
        if cond.kind == KIND_ATTRIBUTE:
            return self._has_attribute(grids, *cond.payload).any(axis=-1)
        if cond.kind == KIND_RELATION:
            if not self.relational:
                raise ValidationError(
                    f"condition {cond.key()} needs a relational scene world"
                )
            rel, sk, si, ok, oi = cond.payload
            # cells with a subject strictly before them, masked to the targets
            after_subject = self._has_attribute(grids, sk, si) @ self._order[rel]
            return (after_subject & self._has_attribute(grids, ok, oi)).any(axis=-1)
        raise ValidationError(f"scene worlds cannot evaluate condition {cond.key()}")

    def condition_pool(self) -> list[ConditionSpec]:
        pool = [
            object_at_cell(c, r)
            for r in range(self.grid_h)
            for c in range(self.grid_w)
        ]
        if self.relational:
            attrs = [("shape", i) for i in range(self.n_shapes)] + [
                ("color", i) for i in range(self.n_colors)
            ]
            for rel in RELATIONS:
                for sa, oa in itertools.permutations(attrs, 2):
                    pool.append(relation(rel, sa, oa))
        return pool

    def _training_cells(self, grids: np.ndarray, rng) -> np.ndarray:
        """One occupied cell per grid drawn uniformly, -1 for an empty grid.

        Its temporaries, several arrays per grid, are freed when it returns,
        before a fit allocates its own."""
        occupied = grids != EMPTY_TOKEN
        n_occupied = occupied.sum(axis=1)
        rows = np.flatnonzero(n_occupied)
        # one draw per non-empty scene in row order, the stream of per-scene draws
        picks = rng.integers(0, n_occupied[rows])
        # the pick's place among all occupied cells, scene by scene
        picks += (np.cumsum(n_occupied) - n_occupied)[rows]
        cells = np.full(grids.shape[0], -1, dtype=np.intp)
        cells[rows] = np.flatnonzero(occupied)[picks] % self.length
        return cells

    def sample_training_pairs(self, rng, n):
        """(grids, specs, index) pairs: a prior scene plus one condition it
        satisfies, as in WorldJoint.sample_training_pairs.

        The condition is drawn uniformly among the positional pool conditions
        the scene satisfies (one of its occupied cells); an empty scene has
        index -1.
        """
        grids = self.prior_sample(rng, n)
        distinct, index = _by_first_appearance(self._training_cells(grids, rng))
        specs = [object_at_cell(p % self.grid_w, p // self.grid_w) for p in distinct.tolist()]
        return grids, specs, index


class FactorizedWorld(WorldJoint):
    """Positions drawn independently; conditions reweight per-cell tables.

    A condition named t with tables {p: q_p} is the event whose likelihood is
    P(c | z) = kappa * prod_p q_p(z_p) / prior_p(z_p), with kappa chosen so
    the likelihood never exceeds one. Bayes then gives the product measure
    P(z | c) with table rows swapped in at the condition's cells, so the true
    multi-condition posterior for disjoint cell sets is exactly the
    per-position product-of-experts combination.
    """

    def __init__(
        self,
        grid_w: int,
        grid_h: int,
        vocab_size: int,
        prior_tables: np.ndarray | None = None,
    ):
        super().__init__()
        self.grid_w = int(grid_w)
        self.grid_h = int(grid_h)
        self.vocab_size = int(vocab_size)
        _check_vocab(self.vocab_size)
        _check_support_cap(self.vocab_size**self.length)
        if prior_tables is None:
            prior_tables = np.full((self.length, self.vocab_size), 1.0 / self.vocab_size)
        self.prior_tables = self._validate_tables(np.asarray(prior_tables, dtype=np.float64))
        if (self.prior_tables <= 0.0).any():
            raise InvalidTable("factorized prior tables must be strictly positive")
        self.table_conditions: dict[str, dict[int, np.ndarray]] = {}

    def params(self) -> dict:
        return {
            "kind": "factorized",
            "grid_w": self.grid_w,
            "grid_h": self.grid_h,
            "vocab_size": self.vocab_size,
        }

    def _validate_tables(self, tables: np.ndarray) -> np.ndarray:
        if tables.shape != (self.length, self.vocab_size):
            raise InvalidTable(
                f"expected tables of shape ({self.length}, {self.vocab_size}), got {tables.shape}"
            )
        if (tables < 0.0).any() or not np.allclose(tables.sum(axis=1), 1.0, atol=1e-9):
            raise InvalidTable("each row must be a probability vector")
        return tables

    def _cell_index(self, cell) -> int:
        if isinstance(cell, tuple):
            col, row = cell
            return int(row) * self.grid_w + int(col)
        return int(cell)

    def add_condition(self, name: str, tables: Mapping) -> ConditionSpec:
        """Register per-cell tables for a new named condition and return its
        spec; a name is registered once, so its likelihood never changes."""
        if str(name) in self.table_conditions:
            raise InvalidTable(f"condition {str(name)!r} is already registered")
        compiled = {}
        for cell, row in tables.items():
            row = np.asarray(row, dtype=np.float64)
            if row.shape != (self.vocab_size,):
                raise InvalidTable(f"table for cell {cell} has shape {row.shape}")
            if (row < 0.0).any() or not math.isclose(float(row.sum()), 1.0, abs_tol=1e-9):
                raise InvalidTable(f"table for cell {cell} is not a probability vector")
            idx = self._cell_index(cell)
            if not 0 <= idx < self.length:
                raise InvalidTable(f"cell {cell} lies outside the {self.grid_w}x{self.grid_h} grid")
            compiled[idx] = row
        if not compiled:
            raise InvalidTable("a condition needs at least one cell table")
        self.table_conditions[str(name)] = compiled
        return cell_table(name)

    def _build_support(self):
        k, length = self.vocab_size, self.length
        count = k**length
        idx = np.arange(count, dtype=np.int64)
        grids = np.empty((count, length), dtype=np.int16)
        for p in range(length):
            grids[:, p] = (idx // k ** (length - 1 - p)) % k
        logp = np.zeros(count)
        log_prior = np.log(self.prior_tables)
        for p in range(length):
            logp += log_prior[p, grids[:, p]]
        return grids, logp

    def _tables_for(self, cond: ConditionSpec) -> dict[int, np.ndarray]:
        (name,) = cond.payload
        if name not in self.table_conditions:
            raise ValidationError(f"unknown table condition {name!r}")
        return self.table_conditions[name]

    def _condition_loglik(self, cond: ConditionSpec) -> np.ndarray:
        if cond.kind != KIND_CELL_TABLE:
            return super()._condition_loglik(cond)
        grids, _ = self.support()
        tables = self._tables_for(cond)
        out = np.zeros(grids.shape[0])
        log_kappa = 0.0
        with np.errstate(divide="ignore"):
            for p, row in tables.items():
                ratio = np.log(row) - np.log(self.prior_tables[p])
                out += ratio[grids[:, p]]
                log_kappa -= float(ratio.max())
        return out + log_kappa

    def predicate(self, grids: np.ndarray, cond: ConditionSpec) -> np.ndarray:
        if cond.kind == KIND_OBJECT_AT_CELL:
            return grids[..., self._cell(cond)] != EMPTY_TOKEN
        raise ValidationError(
            f"factorized worlds cannot evaluate condition {cond.key()} as a predicate: "
            "only object_at_cell conditions are checkable"
        )

    def conditional_tables(self, condition) -> np.ndarray:
        """Exact per-position marginals P(z_p | condition) in closed form."""
        out = self.prior_tables.copy()
        for cond in _iter_conditions(condition):
            if cond.kind != KIND_CELL_TABLE:
                raise ValueError("closed-form tables exist only for cell_table conditions")
            for p, row in self._tables_for(cond).items():
                out[p] = row
        return out

    def condition_pool(self) -> list[ConditionSpec]:
        return [cell_table(name) for name in sorted(self.table_conditions)]

    def sample_training_pairs(self, rng, n):
        """(grids, specs, index) pairs (z, c), as in
        WorldJoint.sample_training_pairs: pick a registered condition
        uniformly, draw z from P(z | c) using the closed-form product
        measure. A world without conditions draws z from the prior, with
        index -1."""
        names = sorted(self.table_conditions)
        if not names:
            return self.prior_sample(rng, n), [], np.full(n, -1, dtype=np.intp)
        which = rng.integers(len(names), size=n)
        grids = np.empty((n, self.length), dtype=np.int16)
        u = rng.random((n, self.length))
        for i, name in enumerate(names):
            rows = which == i
            cum = np.cumsum(self.conditional_tables(cell_table(name)), axis=1)
            drawn = (cum <= u[rows][:, :, None]).sum(axis=2)
            grids[rows] = np.minimum(drawn, self.vocab_size - 1)
        distinct, index = _by_first_appearance(which)
        return grids, [cell_table(names[w]) for w in distinct.tolist()], index


def build_scene_world(
    grid_w: int,
    grid_h: int,
    n_shapes: int = 2,
    n_colors: int = 2,
    max_objects: int = 3,
    relational: bool = False,
) -> SceneWorld:
    return SceneWorld(grid_w, grid_h, n_shapes, n_colors, max_objects, relational)


def build_factorized_world(
    grid_w: int,
    grid_h: int,
    vocab_size: int,
    per_cell_condition_tables: Mapping[str, Mapping],
    prior_tables: np.ndarray | None = None,
) -> FactorizedWorld:
    """Factorized world with the given named condition table sets."""
    world = FactorizedWorld(grid_w, grid_h, vocab_size, prior_tables)
    for name, tables in per_cell_condition_tables.items():
        world.add_condition(name, tables)
    return world


def build_random_factorized_world(
    grid_w: int,
    grid_h: int,
    vocab_size: int,
    n_conditions: int,
    cells_per_condition: int = 1,
    seed: int = 0,
) -> FactorizedWorld:
    """Random Dirichlet tables; conditions claim disjoint cell sets."""
    length = grid_w * grid_h
    if n_conditions * cells_per_condition > length:
        raise InvalidTable("conditions would need more disjoint cells than exist")
    rng = np.random.default_rng(seed)
    prior = rng.dirichlet(np.full(vocab_size, TABLE_CONCENTRATION), size=length)
    prior = np.maximum(prior, 1e-6)
    prior /= prior.sum(axis=1, keepdims=True)
    world = FactorizedWorld(grid_w, grid_h, vocab_size, prior)
    cells = rng.permutation(length)
    for i in range(n_conditions):
        claimed = cells[i * cells_per_condition : (i + 1) * cells_per_condition]
        tables = {
            int(p): rng.dirichlet(np.full(vocab_size, TABLE_CONCENTRATION)) for p in claimed
        }
        world.add_condition(f"c{i}", tables)
    return world


def enumerate_posterior(world: WorldJoint, conds: Sequence[ConditionSpec]) -> Posterior:
    return world.enumerate_posterior(conds)


# The exact model's memo: each (state, condition) answer is charged its
# (L, K) log-prob array, its state bytes and condition key tuples, and a
# fixed cost that bounds the rest: the outer key tuple, the bytes and array
# headers and the memo's slot. The early-step states repeat across runs and
# stay; deep states rarely repeat and age out.
EXACT_MEMO_CAP_BYTES = 1 << 23
# An entry holds about 560 live bytes and is charged about 980, 1.75x. The
# charge stays loose on purpose: exact-3x3's memo is full (about 21.7k
# misses per round), and a charge near the live bytes (94 here) raised that
# workload's peak memory from 45.3 to 49.8 MiB, past its 3% bound.
_EXACT_ENTRY_BYTES = 512


def _exact_charge(key_bytes: dict, key: tuple, out: np.ndarray) -> int:
    """An entry's charge; key_bytes keeps each condition key's tuple bytes,
    so they are measured once per key."""
    state, ckey = key
    n = key_bytes.get(ckey)
    if n is None:
        n = key_bytes[ckey] = sum(sys.getsizeof(x) for x in (ckey, *ckey) if isinstance(x, tuple))
    return _EXACT_ENTRY_BYTES + len(state) + n + out.nbytes


class ExactConditionalModel:
    """Oracle-grade conditional model backed by brute-force marginalization.

    For every masked position the marginal is obtained by summing the world's
    joint over all support states that agree with the unmasked slots (and
    fall inside the condition's likelihood when one is given). The support is
    held column-major, (L, S), so a query narrows compatible row indices one
    fixed slot at a time, gathers the prior times each condition's likelihood
    at those rows, and takes one weighted bincount per masked position. The
    last state's tokens and row indices are kept: the sampler asks about one
    state n + 1 times in a row, and its next state fixes more slots, so that
    state narrows the kept rows by its newly fixed slots only. An answer is
    one read-only (L, K) array, point masses at the fixed slots, memoized per
    (state, condition) in a two-generation memo of EXACT_MEMO_CAP_BYTES.

    A condition that the fixed slots decide either way answers with the
    unconditional answer, the same array object, which the memo then holds
    under both keys. When the condition has zero probability given the fixed
    slots the conditional is undefined; the expert abstains (no remaining
    evidence), the graceful degradation a bounded-logit network would exhibit.
    When its likelihood is exactly one on every compatible support state it is
    certain, and its likelihood ratio is one. An unconditional query with no
    compatible support state raises AllMassZero.
    """

    def __init__(self, world: WorldJoint):
        self.world = world
        self.vocab_size = world.vocab_size
        grids, logp = world.support()
        self._cols = np.ascontiguousarray(grids.T)
        self._prior = np.exp(logp)
        self._onehot = np.eye(self.vocab_size)
        self._last: tuple[bytes, list, tuple] = (b"", [], ())
        self._lik: dict[tuple, np.ndarray] = {}
        # a partial, not a bound method: a memo that refers back to its model
        # would make a cycle, which keeps a dropped model alive until the
        # cyclic collector runs
        self.memo = Memo(EXACT_MEMO_CAP_BYTES, functools.partial(_exact_charge, {}))

    def _exp_loglik(self, cond: ConditionSpec) -> np.ndarray:
        """exp(condition_loglik), computed once per condition."""
        hit = self._lik.get(cond.key())
        if hit is None:
            with np.errstate(over="ignore"):
                hit = np.exp(self.world.condition_loglik(cond))
            self._lik[cond.key()] = hit
        return hit

    def _compatible(self, key: bytes, tokens: np.ndarray) -> tuple:
        """The rows that agree with every fixed slot: their ascending indices,
        their masked columns (M, n) and their prior; the masked positions,
        and an (L, K) array whose fixed rows are one-hot on their tokens. A
        state that keeps every token of the last state narrows that
        state's rows by the slots it newly fixed; any other state narrows the
        full support."""
        last_key, seen, rows = self._last
        if last_key == key:
            return rows
        cols = self._cols
        values = tokens.tolist()
        if seen and all(u == MASK or u == v for u, v in zip(seen, values)):
            idx, fixed = rows[0], [(p, v) for p, (u, v) in enumerate(zip(seen, values)) if u != v]
        else:
            idx, fixed = None, [(p, v) for p, v in enumerate(values) if v != MASK]
        for p, v in fixed:
            idx = np.flatnonzero(cols[p] == v) if idx is None else idx[cols[p][idx] == v]
        if idx is None:
            idx = np.arange(cols.shape[1])
        masked = [p for p, v in enumerate(values) if v == MASK]
        # a masked slot takes the last one-hot row; predict overwrites it
        onehot = self._onehot.take(tokens, axis=0)
        rows = (idx, cols.take(idx, axis=1)[masked], self._prior[idx], masked, onehot)
        self._last = (key, values, rows)
        return rows

    def predict(self, tokens: np.ndarray, condition=None) -> np.ndarray:
        skey = tokens.tobytes()
        key = (skey, cond_key(condition))
        hit = self.memo.get(key)
        if hit is not None:
            return hit
        idx, sub, w, masked, onehot = self._compatible(skey, tokens)
        decided = condition is not None
        for cond in _iter_conditions(condition):
            lik = self._exp_loglik(cond)[idx]
            # exactly one on every compatible row: the fixed slots make the
            # condition certain, and w * 1.0 == w bit for bit
            if (lik == 1.0).all():
                continue
            w = w * lik
            decided = False
        # the fixed slots decide the prompt when every condition is certain
        # or one is impossible (total 0): either way the answer is the
        # unconditional one, held in the memo under both keys
        total = 0.0 if decided else float(w.sum())
        if not (total > 0.0):
            if idx.size == 0 or condition is None:
                raise AllMassZero("no support state agrees with the unmasked slots")
            out = self.predict(tokens, None)
        else:
            # a fixed row holds total on its token, so dividing by total and
            # taking the log leaves the exact point mass there
            out = onehot * total
            for p, col in zip(masked, sub):
                out[p] = np.bincount(col, weights=w, minlength=self.vocab_size)
            with np.errstate(divide="ignore"):
                np.log(np.divide(out, total, out=out), out=out)
            out.flags.writeable = False
        self.memo.put(key, out)
        return out


def exact_conditional_model(world: WorldJoint) -> ExactConditionalModel:
    return ExactConditionalModel(world)


# palette for rendering: one RGB triple per color id
_PALETTE = np.array(
    [
        [0.85, 0.20, 0.20],
        [0.20, 0.65, 0.85],
        [0.25, 0.80, 0.30],
        [0.90, 0.80, 0.20],
        [0.75, 0.30, 0.80],
        [0.90, 0.55, 0.15],
    ]
)
_BACKGROUND = 0.12


def render_tokens_to_image(
    world: SceneWorld, tokens: np.ndarray, cell_px: int = 4
) -> np.ndarray:
    """Paint a token grid as an H x W x 3 float image in [0, 1].

    Each cell becomes a cell_px square: empty cells are dark, objects get
    their color id's palette entry masked by a per-shape stencil, so every
    token renders to a distinct patch.
    """
    tokens = np.asarray(tokens).reshape(world.grid_h, world.grid_w)
    img = np.full((world.grid_h * cell_px, world.grid_w * cell_px, 3), _BACKGROUND)
    yy, xx = np.mgrid[0:cell_px, 0:cell_px]
    center = (cell_px - 1) / 2.0
    stencils = [
        np.ones((cell_px, cell_px), dtype=bool),
        (np.abs(xx - center) + np.abs(yy - center)) <= center,
        (np.abs(xx - center) <= center / 2) | (np.abs(yy - center) <= center / 2),
        ((xx + yy) % 2 == 0),
    ]
    for r in range(world.grid_h):
        for c in range(world.grid_w):
            attrs = world.token_attributes(int(tokens[r, c]))
            if attrs is None:
                continue
            shape, color = attrs
            cell = img[r * cell_px : (r + 1) * cell_px, c * cell_px : (c + 1) * cell_px]
            stencil = stencils[shape % len(stencils)]
            cell[stencil] = _PALETTE[color % len(_PALETTE)]
    return img
