"""Enumerable miniature scene worlds and their exact oracles.

Two world families share one interface. Scene worlds place up to max_objects
typed objects (shape, color) on a small cell grid, render each scene to a
token grid injectively and weight all valid scenes uniformly; conditions are
hard predicates on the rendered grid (object at a cell, attribute present,
pairwise relation). Factorized worlds draw every position independently from
per-position prior tables; a condition there is an event whose likelihood is
proportional to a product of per-cell table ratios, so positions stay
independent given any single condition and the product-of-experts combination
of per-position conditionals is exact for conditions on disjoint cells.

Everything an oracle needs is brute force: the full support is enumerated
(capped), posteriors are computed by reweighting and renormalizing that
enumeration, and the exact conditional model marginalizes over all support
states consistent with the unmasked slots of a partial grid.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    AllMassZero,
    EmptyIntersection,
    InvalidTable,
    StateSpaceTooLarge,
)
from .sampler import MASK, MaskedState

STATE_SPACE_CAP = 10_000_000
EMPTY_TOKEN = 0

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
    """

    kind: str
    payload: tuple

    def key(self) -> tuple:
        return (self.kind,) + tuple(self.payload)


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


def cond_key(condition) -> tuple:
    """Canonical hashable key for None, one spec, or a set of specs.

    A tuple of specs is treated as one opaque joint prompt; its key is order
    independent so {a, b} and {b, a} address the same counts.
    """
    if condition is None:
        return UNCONDITIONAL_KEY
    if isinstance(condition, ConditionSpec):
        return condition.key()
    keys = sorted(c.key() for c in condition)
    return ("joint",) + tuple(keys)


def _iter_conditions(condition) -> tuple:
    if condition is None:
        return ()
    if isinstance(condition, ConditionSpec):
        return (condition,)
    return tuple(condition)


@dataclass(frozen=True)
class SceneSpec:
    """One concrete scene: typed objects placed on distinct cells."""

    grid_w: int
    grid_h: int
    objects: tuple[tuple[tuple[int, int], int, int], ...]  # ((col,row), shape, color)
    max_objects: int

    def __post_init__(self):
        cells = [o[0] for o in self.objects]
        if len(set(cells)) != len(cells):
            raise ValueError("at most one object per cell")
        if not (0 <= len(self.objects) <= self.max_objects):
            raise ValueError("object count out of range")
        for (col, row), _, _ in self.objects:
            if not (0 <= col < self.grid_w and 0 <= row < self.grid_h):
                raise ValueError(f"cell ({col},{row}) outside {self.grid_w}x{self.grid_h} grid")


def render_scene(spec: SceneSpec, n_colors: int) -> np.ndarray:
    """Deterministic, injective scene-to-token-grid map.

    Token 0 is the empty cell; an object with shape s and color c becomes
    1 + s * n_colors + c.
    """
    tokens = np.zeros(spec.grid_w * spec.grid_h, dtype=np.int16)
    for (col, row), shape, color in spec.objects:
        tokens[row * spec.grid_w + col] = 1 + shape * n_colors + color
    return tokens


@dataclass
class Posterior:
    """Exact distribution over token grids: support rows plus probabilities."""

    grids: np.ndarray  # (S, L) int16
    probs: np.ndarray  # (S,) float64, sums to 1
    vocab_size: int

    def marginals(self) -> np.ndarray:
        """Per-position token marginals, shape (L, K)."""
        length = self.grids.shape[1]
        out = np.zeros((length, self.vocab_size))
        for p in range(length):
            out[p] = np.bincount(
                self.grids[:, p], weights=self.probs, minlength=self.vocab_size
            )
        return out

    def sample(self, rng: np.random.Generator, n: int = 1) -> np.ndarray:
        idx = rng.choice(self.probs.size, size=n, p=self.probs)
        return self.grids[idx]


class WorldJoint:
    """Base for exhaustively enumerable worlds.

    Subclasses fill in the support (all token grids with positive prior
    probability), per-condition log-likelihoods over that support, and the
    predicate semantics used for satisfaction checks.
    """

    grid_w: int
    grid_h: int
    vocab_size: int

    def __init__(self):
        self._support: tuple[np.ndarray, np.ndarray] | None = None
        self._loglik_cache: dict[tuple, np.ndarray] = {}
        self._prior_marginals: np.ndarray | None = None

    @property
    def length(self) -> int:
        return self.grid_w * self.grid_h

    # subclass surface -----------------------------------------------------
    def _build_support(self) -> tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError

    def _condition_loglik(self, cond: ConditionSpec) -> np.ndarray:
        raise NotImplementedError

    def satisfies(self, grid: np.ndarray, cond: ConditionSpec) -> bool:
        raise NotImplementedError

    def condition_pool(self) -> list[ConditionSpec]:
        raise NotImplementedError

    def sample_training_pairs(
        self, rng: np.random.Generator, n: int
    ) -> tuple[np.ndarray, list]:
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

    def check_conditions(self, grid: np.ndarray, conds: Sequence[ConditionSpec]) -> np.ndarray:
        """Satisfaction bitmap for a fully unmasked grid."""
        grid = np.asarray(grid)
        if bool((grid == MASK).any()):
            raise ValueError("check_conditions requires a fully unmasked grid")
        return np.array([self.satisfies(grid, c) for c in conds], dtype=bool)

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

    def prior_marginals(self) -> np.ndarray:
        if self._prior_marginals is None:
            self._prior_marginals = self.enumerate_posterior([]).marginals()
        return self._prior_marginals

    def prior_sample(self, rng: np.random.Generator, n: int = 1) -> np.ndarray:
        grids, logp = self.support()
        idx = rng.choice(grids.shape[0], size=n, p=np.exp(logp))
        return grids[idx]


def _check_support_cap(count: int):
    if count > STATE_SPACE_CAP:
        raise StateSpaceTooLarge(f"{count} states exceeds cap {STATE_SPACE_CAP}")


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
        self._satisfaction: dict[tuple, np.ndarray] = {}
        count = sum(
            math.comb(self.length, m) * (self.n_shapes * self.n_colors) ** m
            for m in range(min(self.max_objects, self.length) + 1)
        )
        _check_support_cap(count)

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

    def iter_scenes(self) -> Iterable[SceneSpec]:
        cells = [(c, r) for r in range(self.grid_h) for c in range(self.grid_w)]
        types = list(itertools.product(range(self.n_shapes), range(self.n_colors)))
        for m in range(min(self.max_objects, self.length) + 1):
            for placed in itertools.combinations(cells, m):
                for assigned in itertools.product(types, repeat=m):
                    objs = tuple(
                        (cell, shape, color)
                        for cell, (shape, color) in zip(placed, assigned)
                    )
                    yield SceneSpec(self.grid_w, self.grid_h, objs, self.max_objects)

    def _build_support(self):
        grids = np.stack(
            [render_scene(s, self.n_colors) for s in self.iter_scenes()]
        ).astype(np.int16)
        n = grids.shape[0]
        logp = np.full(n, -math.log(n))
        return grids, logp

    def token_attributes(self, token: int) -> tuple[int, int] | None:
        """(shape, color) of a token, or None for the empty cell."""
        if token == EMPTY_TOKEN:
            return None
        return (token - 1) // self.n_colors, (token - 1) % self.n_colors

    def _objects_of(self, grid: np.ndarray) -> list[tuple[int, int, int, int]]:
        out = []
        for idx in np.flatnonzero(np.asarray(grid) != EMPTY_TOKEN):
            shape, color = self.token_attributes(int(grid[idx]))
            out.append((int(idx) % self.grid_w, int(idx) // self.grid_w, shape, color))
        return out

    def satisfies(self, grid: np.ndarray, cond: ConditionSpec) -> bool:
        grid = np.asarray(grid)
        if cond.kind == KIND_OBJECT_AT_CELL:
            col, row = cond.payload
            return int(grid[row * self.grid_w + col]) != EMPTY_TOKEN
        if cond.kind == KIND_ATTRIBUTE:
            attr_kind, attr_id = cond.payload
            pick = 0 if attr_kind == "shape" else 1
            return any(o[2 + pick] == attr_id for o in self._objects_of(grid))
        if cond.kind == KIND_RELATION:
            if not self.relational:
                raise ValueError("relation conditions need a relational world")
            rel, sk, si, ok, oi = cond.payload
            objs = self._objects_of(grid)
            subjects = [o for o in objs if o[2 if sk == "shape" else 3] == si]
            targets = [o for o in objs if o[2 if ok == "shape" else 3] == oi]
            for s in subjects:
                for t in targets:
                    if (s[0], s[1]) == (t[0], t[1]):
                        continue
                    if rel == "left_of" and s[0] < t[0]:
                        return True
                    if rel == "above" and s[1] < t[1]:
                        return True
            return False
        raise ValueError(f"scene worlds cannot evaluate {cond.kind!r} conditions")

    def _satisfaction_column(self, cond: ConditionSpec) -> np.ndarray:
        key = cond.key()
        if key not in self._satisfaction:
            grids, _ = self.support()
            self._satisfaction[key] = np.array(
                [self.satisfies(g, cond) for g in grids], dtype=bool
            )
        return self._satisfaction[key]

    def _condition_loglik(self, cond: ConditionSpec) -> np.ndarray:
        sat = self._satisfaction_column(cond)
        out = np.where(sat, 0.0, -np.inf)
        return out

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

    def sample_training_pairs(self, rng, n):
        """(grid, condition) pairs: a prior scene plus one condition it satisfies.

        The condition is drawn uniformly among the positional pool conditions
        the scene satisfies (one of its occupied cells); empty scenes yield
        an absent condition.
        """
        grids = self.prior_sample(rng, n)
        conds = []
        for g in grids:
            occupied = np.flatnonzero(g != EMPTY_TOKEN)
            if occupied.size == 0:
                conds.append(None)
                continue
            idx = int(occupied[rng.integers(occupied.size)])
            conds.append(object_at_cell(idx % self.grid_w, idx // self.grid_w))
        return grids, conds


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
        """Register per-cell tables for a named condition and return its spec."""
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
        self._loglik_cache.pop(cell_table(name).key(), None)
        return cell_table(name)

    def condition_cells(self, name: str) -> list[int]:
        return sorted(self.table_conditions[name])

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
            raise ValueError(f"unknown table condition {name!r}")
        return self.table_conditions[name]

    def _condition_loglik(self, cond: ConditionSpec) -> np.ndarray:
        grids, _ = self.support()
        if cond.kind == KIND_OBJECT_AT_CELL:
            col, row = cond.payload
            sat = grids[:, row * self.grid_w + col] != EMPTY_TOKEN
            return np.where(sat, 0.0, -np.inf)
        if cond.kind != KIND_CELL_TABLE:
            raise ValueError(f"factorized worlds cannot evaluate {cond.kind!r} conditions")
        tables = self._tables_for(cond)
        out = np.zeros(grids.shape[0])
        log_kappa = 0.0
        with np.errstate(divide="ignore"):
            for p, row in tables.items():
                ratio = np.log(row) - np.log(self.prior_tables[p])
                out += ratio[grids[:, p]]
                log_kappa -= float(ratio.max())
        return out + log_kappa

    def satisfies(self, grid: np.ndarray, cond: ConditionSpec) -> bool:
        if cond.kind == KIND_OBJECT_AT_CELL:
            col, row = cond.payload
            return int(np.asarray(grid)[row * self.grid_w + col]) != EMPTY_TOKEN
        raise ValueError("only object_at_cell predicates are checkable on factorized worlds")

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
        """Pairs (z, c): pick a registered condition uniformly, draw z from
        P(z | c) using the closed-form product measure."""
        names = sorted(self.table_conditions)
        if not names:
            return self.prior_sample(rng, n), [None] * n
        which = rng.integers(len(names), size=n)
        grids = np.empty((n, self.length), dtype=np.int16)
        u = rng.random((n, self.length))
        cums = {
            name: np.cumsum(self.conditional_tables(cell_table(name)), axis=1)
            for name in names
        }
        for i in range(n):
            cum = cums[names[which[i]]]
            for p in range(self.length):
                grids[i, p] = min(
                    int(np.searchsorted(cum[p], u[i, p], side="right")),
                    self.vocab_size - 1,
                )
        return grids, [cell_table(names[w]) for w in which]


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
    concentration: float = 2.0,
) -> FactorizedWorld:
    """Random Dirichlet tables; conditions claim disjoint cell sets."""
    length = grid_w * grid_h
    if n_conditions * cells_per_condition > length:
        raise InvalidTable("conditions would need more disjoint cells than exist")
    rng = np.random.default_rng(seed)
    prior = rng.dirichlet(np.full(vocab_size, concentration), size=length)
    prior = np.maximum(prior, 1e-6)
    prior /= prior.sum(axis=1, keepdims=True)
    world = FactorizedWorld(grid_w, grid_h, vocab_size, prior)
    cells = rng.permutation(length)
    for i in range(n_conditions):
        claimed = cells[i * cells_per_condition : (i + 1) * cells_per_condition]
        tables = {
            int(p): rng.dirichlet(np.full(vocab_size, concentration)) for p in claimed
        }
        world.add_condition(f"c{i}", tables)
    return world


def enumerate_posterior(world: WorldJoint, conds: Sequence[ConditionSpec]) -> Posterior:
    return world.enumerate_posterior(conds)


class ExactConditionalModel:
    """Oracle-grade conditional model backed by brute-force marginalization.

    For every masked position the marginal is obtained by summing the world's
    joint over all support states that agree with the unmasked slots (and
    fall inside the condition's likelihood when one is given). Queries are
    memoized per (state, condition); callers must treat returned vectors as
    read-only.

    When a condition has zero probability given the already fixed slots the
    conditional is undefined; by default the expert abstains and answers with
    the unconditional distribution (no remaining evidence), the graceful
    degradation a bounded-logit network would exhibit. on_impossible="raise"
    turns that case into AllMassZero instead. An unconditional query with no
    compatible support state always raises.
    """

    def __init__(self, world: WorldJoint, on_impossible: str = "abstain"):
        if on_impossible not in ("abstain", "raise"):
            raise ValueError(f"unknown on_impossible policy {on_impossible!r}")
        self.world = world
        self.vocab_size = world.vocab_size
        self.on_impossible = on_impossible
        self._cache: dict[tuple, dict[int, np.ndarray]] = {}
        grids, logp = world.support()
        self._grids = grids
        self._prior = np.exp(logp)

    def _likelihood(self, condition) -> np.ndarray:
        w = self._prior
        for cond in _iter_conditions(condition):
            with np.errstate(over="ignore"):
                w = w * np.exp(self.world.condition_loglik(cond))
        return w

    def predict(self, state: MaskedState, condition=None) -> dict[int, np.ndarray]:
        key = (state.key(), cond_key(condition))
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        tokens = state.tokens
        fixed = np.flatnonzero(tokens != MASK)
        sel = np.ones(self._grids.shape[0], dtype=bool)
        for p in fixed:
            sel &= self._grids[:, p] == tokens[p]
        w = self._likelihood(condition)[sel]
        total = float(w.sum())
        if not (total > 0.0):
            if condition is None or self.on_impossible == "raise":
                raise AllMassZero("condition is incompatible with the unmasked slots")
            out = self.predict(state, None)
        else:
            sub = self._grids[sel]
            out = {}
            with np.errstate(divide="ignore"):
                for p in np.flatnonzero(tokens == MASK):
                    marg = np.bincount(sub[:, p], weights=w, minlength=self.vocab_size)
                    out[int(p)] = np.log(marg / total)
        self._cache[key] = out
        return out


def exact_conditional_model(
    world: WorldJoint, on_impossible: str = "abstain"
) -> ExactConditionalModel:
    return ExactConditionalModel(world, on_impossible)


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
