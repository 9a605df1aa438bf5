"""Reference scene world: one SceneSpec per scene, one Python check per grid.

The package's SceneWorld writes its support as whole blocks of an (S, L)
array and evaluates each condition over all N grids at once. This module
keeps the direct formulation: scenes enumerated one at a time with
itertools, rendered one token grid each, and every predicate checked by
walking the objects of one grid. Tests check the array code against it byte
for byte.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from maskcompose.errors import ValidationError
from maskcompose.worlds import (
    EMPTY_TOKEN,
    KIND_ATTRIBUTE,
    KIND_OBJECT_AT_CELL,
    KIND_RELATION,
    ConditionSpec,
)


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


def iter_scenes(world) -> Iterable[SceneSpec]:
    cells = [(c, r) for r in range(world.grid_h) for c in range(world.grid_w)]
    types = list(itertools.product(range(world.n_shapes), range(world.n_colors)))
    for m in range(min(world.max_objects, world.length) + 1):
        for placed in itertools.combinations(cells, m):
            for assigned in itertools.product(types, repeat=m):
                objs = tuple(
                    (cell, shape, color) for cell, (shape, color) in zip(placed, assigned)
                )
                yield SceneSpec(world.grid_w, world.grid_h, objs, world.max_objects)


def support(world) -> tuple[np.ndarray, np.ndarray]:
    """(grids, logp) of every scene, rendered one at a time, uniform prior."""
    grids = np.stack([render_scene(s, world.n_colors) for s in iter_scenes(world)])
    n = grids.shape[0]
    return grids.astype(np.int16), np.full(n, -math.log(n))


def objects_of(world, grid: np.ndarray) -> list[tuple[int, int, int, int]]:
    """(col, row, shape, color) of every object on the grid."""
    out = []
    for idx in np.flatnonzero(np.asarray(grid) != EMPTY_TOKEN):
        shape, color = world.token_attributes(int(grid[idx]))
        out.append((int(idx) % world.grid_w, int(idx) // world.grid_w, shape, color))
    return out


def satisfies(world, grid: np.ndarray, cond: ConditionSpec) -> bool:
    grid = np.asarray(grid)
    if cond.kind == KIND_OBJECT_AT_CELL:
        col, row = cond.payload
        return int(grid[row * world.grid_w + col]) != EMPTY_TOKEN
    if cond.kind == KIND_ATTRIBUTE:
        attr_kind, attr_id = cond.payload
        pick = 0 if attr_kind == "shape" else 1
        return any(o[2 + pick] == attr_id for o in objects_of(world, grid))
    if cond.kind == KIND_RELATION:
        if not world.relational:
            raise ValidationError("relation conditions need a relational world")
        rel, sk, si, ok, oi = cond.payload
        objs = objects_of(world, grid)
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
    raise ValidationError(f"scene worlds cannot evaluate {cond.kind!r} conditions")


def satisfaction_column(world, grids: np.ndarray, cond: ConditionSpec) -> np.ndarray:
    return np.array([satisfies(world, g, cond) for g in grids], dtype=bool)
