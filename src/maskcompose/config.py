"""Flat key=value run configuration with dotted section names.

A config file is plain text: one `key = value` per line, full-line comments
starting with `#`, blank lines ignored. Every key has a documented default;
a key outside the schema, a duplicate key, or an out-of-range value raises
ValidationError naming the offender. The canonical echo of a parsed config
(config_lines) is written into every artifact and report header so a run can
be reproduced from its outputs alone, and parse_config_text reads it back.

Conditions use a compact one-token syntax, space separated in the
`conditions.specs` value:

    object_at_cell:COL,ROW
    attribute_present:KIND,ID        with KIND in {shape, color}
    relation:REL,KIND,ID,KIND,ID     with REL in {left_of, above}
    cell_table:NAME                  factorized worlds only
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .compose import DEFAULT_TEMPERATURE
from .countmodel import DEFAULT_ALPHA, DEFAULT_DROPOUT
from .errors import ValidationError
from .worlds import (
    ConditionSpec,
    WorldJoint,
    attribute_present,
    build_random_factorized_world,
    build_scene_world,
    cell_table,
    object_at_cell,
    relation,
)
from .sampler import (
    MODE_AUTOREGRESSIVE,
    MODE_MASKED,
    ORDER_MAX_CONFIDENCE,
    ORDER_RANDOM,
    SamplerSchedule,
)


def _parse_int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValidationError(f"expected an integer, got {text!r}") from None


def _parse_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ValidationError(f"expected a number, got {text!r}") from None
    if not math.isfinite(value):
        raise ValidationError(f"expected a finite number, got {text!r}")
    return value


def _parse_bool(text: str) -> bool:
    if text == "true":
        return True
    if text == "false":
        return False
    raise ValidationError(f"expected true or false, got {text!r}")


def _parse_opt_int(text: str):
    if text == "none":
        return None
    return _parse_int(text)


def _parse_str(text: str) -> str:
    return text


def _parse_float_list(text: str) -> tuple[float, ...]:
    return tuple(_parse_float(tok) for tok in text.split())


def parse_condition(token: str) -> ConditionSpec:
    """One DSL token -> ConditionSpec; see module docstring for the syntax."""
    kind, sep, payload = token.partition(":")
    if not sep:
        raise ValidationError(f"condition {token!r} is missing its ':' payload")
    parts = payload.split(",") if payload else []
    try:
        if kind == "object_at_cell":
            col, row = parts
            return object_at_cell(int(col), int(row))
        if kind == "attribute_present":
            attr_kind, attr_id = parts
            return attribute_present(attr_kind, int(attr_id))
        if kind == "relation":
            rel, sk, si, ok, oi = parts
            return relation(rel, (sk, int(si)), (ok, int(oi)))
        if kind == "cell_table":
            (name,) = parts
            return cell_table(name)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"condition {token!r}: {exc}") from None
    raise ValidationError(f"unknown condition kind {kind!r} in {token!r}")


def _parse_cond_list(text: str) -> tuple[ConditionSpec, ...]:
    return tuple(parse_condition(tok) for tok in text.split())


def format_condition(spec: ConditionSpec) -> str:
    return f"{spec.kind}:{','.join(str(p) for p in spec.payload)}"


def _fmt(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        if value and isinstance(value[0], ConditionSpec):
            return " ".join(format_condition(s) for s in value)
        return " ".join(repr(v) if isinstance(v, float) else str(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


@dataclass(frozen=True)
class _Field:
    default: object
    parse: object
    check: object  # predicate on the parsed value, or None
    help: str


def _choice(*options):
    return lambda v: v in options


def _positive(v) -> bool:
    return v > 0


def _non_negative(v) -> bool:
    return v >= 0


def _unit_interval(v) -> bool:
    return 0.0 <= v <= 1.0


# the whole schema: every key a command may read, with defaults and ranges
SCHEMA: dict[str, _Field] = {
    "world.kind": _Field(
        "scene", _parse_str, _choice("scene", "factorized"),
        "world family: enumerable object scenes or per-cell factorized tables",
    ),
    "world.grid_w": _Field(3, _parse_int, _positive, "grid width in cells"),
    "world.grid_h": _Field(3, _parse_int, _positive, "grid height in cells"),
    "world.n_shapes": _Field(1, _parse_int, _positive, "scene worlds: distinct shapes"),
    "world.n_colors": _Field(1, _parse_int, _positive, "scene worlds: distinct colors"),
    "world.max_objects": _Field(
        3, _parse_int, _non_negative, "scene worlds: object budget per scene"
    ),
    "world.vocab_size": _Field(
        3, _parse_int, lambda v: v >= 2, "factorized worlds: tokens per cell"
    ),
    "world.n_tables": _Field(
        2, _parse_int, _positive,
        "factorized worlds: number of named condition table sets (c0, c1, ...)",
    ),
    "world.cells_per_table": _Field(
        1, _parse_int, _positive, "factorized worlds: disjoint cells per condition"
    ),
    "world.table_seed": _Field(
        0, _parse_int, None, "factorized worlds: seed for the random tables"
    ),
    "model.kind": _Field(
        "count", _parse_str, _choice("exact", "count"),
        "exact brute-force oracle or learned count model",
    ),
    "model.n_samples": _Field(
        30_000, _parse_int, _positive, "count models: training sample count"
    ),
    "model.alpha": _Field(
        DEFAULT_ALPHA, _parse_float, _non_negative, "count models: Laplace smoothing"
    ),
    "model.dropout_prob": _Field(
        DEFAULT_DROPOUT, _parse_float, _unit_interval,
        "count models: probability a training condition is dropped",
    ),
    "model.training_max_objects": _Field(
        None, _parse_opt_int, lambda v: v is None or v >= 0,
        "count models: cap objects per training scene (none = world budget; ood needs one)",
    ),
    "model.seed": _Field(0, _parse_int, None, "count models: training RNG seed"),
    "schedule.mode": _Field(
        MODE_MASKED, _parse_str, _choice(MODE_MASKED, MODE_AUTOREGRESSIVE),
        "unmasking regime",
    ),
    "schedule.tokens_per_step": _Field(
        1, _parse_int, _positive, "positions fixed per masked step"
    ),
    "schedule.order_policy": _Field(
        ORDER_RANDOM, _parse_str, _choice(ORDER_RANDOM, ORDER_MAX_CONFIDENCE),
        "masked mode position order",
    ),
    "schedule.temperature": _Field(
        DEFAULT_TEMPERATURE, _parse_float, _positive, "sampling temperature (1 = raw composed law)"
    ),
    "schedule.seed": _Field(
        0, _parse_int, None, "run seed; the --seed flag overrides this"
    ),
    "conditions.specs": _Field(
        (), _parse_cond_list, None,
        "space separated condition tokens, empty for unconditional",
    ),
    "conditions.weights": _Field(
        (), _parse_float_list, None,
        "one weight per condition, empty for all 1.0",
    ),
    "sample.n_runs": _Field(16, _parse_int, _positive, "grids to sample"),
    "sample.render": _Field(
        False, _parse_bool, None, "also write PPM renders of sampled grids"
    ),
    "eval.suite": _Field(
        "error", _parse_str,
        _choice("error", "ood", "negation", "fidelity", "acceptance"),
        "which evaluation to run",
    ),
    "eval.n_components": _Field(
        2, _parse_int, _non_negative, "error/ood suites: conditions per composed run"
    ),
    "eval.n_samples": _Field(
        1000, _parse_int, _positive, "error/ood/negation/fidelity: runs per arm"
    ),
    "eval.weight_sweep": _Field(
        (-3.0, -1.0, 0.0, 1.0, 3.0), _parse_float_list, None,
        "negation suite: concept weights to sweep",
    ),
    "bench.tokens_per_step_grid": _Field(
        (1, 3, 9), lambda t: tuple(_parse_int(x) for x in t.split()),
        lambda v: all(x >= 1 for x in v), "bench: tokens_per_step values",
    ),
    "bench.n_conditions_grid": _Field(
        (0, 1, 2), lambda t: tuple(_parse_int(x) for x in t.split()),
        lambda v: all(x >= 0 for x in v), "bench: condition counts",
    ),
    "bench.n_runs": _Field(5, _parse_int, _positive, "bench: runs per grid point"),
    "codebook.n_entries": _Field(64, _parse_int, _positive, "codebook size"),
    "codebook.patch": _Field(4, _parse_int, _positive, "square patch side in pixels"),
    "codebook.iters": _Field(25, _parse_int, _positive, "k-means iterations"),
    "codebook.n_images": _Field(
        200, _parse_int, _positive, "world renders pooled for codebook training"
    ),
    "codebook.cell_px": _Field(
        4, _parse_int, _positive, "render size of one grid cell in pixels"
    ),
    "codebook.seed": _Field(0, _parse_int, None, "codebook training seed"),
    "paths.out": _Field(
        "runs/default", _parse_str, None,
        "run directory for artifacts and reports; the --out flag overrides this",
    ),
}


@dataclass
class RunConfig:
    """Parsed configuration: every schema key resolved to a typed value."""

    values: dict = field(default_factory=dict)

    def __post_init__(self):
        resolved = {k: f.default for k, f in SCHEMA.items()}
        resolved.update(self.values)
        self.values = resolved
        n_conds = len(self.values["conditions.specs"])
        weights = self.values["conditions.weights"]
        if weights and len(weights) != n_conds:
            raise ValidationError(
                "conditions.weights must match conditions.specs "
                f"({len(weights)} weights for {n_conds} conditions)"
            )
        if not weights:
            self.values["conditions.weights"] = (1.0,) * n_conds

    def __getitem__(self, key: str):
        return self.values[key]

    def conditions(self) -> tuple[ConditionSpec, ...]:
        return self.values["conditions.specs"]

    def weights(self) -> tuple[float, ...]:
        return self.values["conditions.weights"]

    def override(self, key: str, value):
        if key not in SCHEMA:
            raise ValidationError(f"unknown config key {key!r}")
        self.values[key] = value


def parse_config_text(text: str) -> RunConfig:
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ValidationError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key = key.strip()
        value = value.strip()
        spec = SCHEMA.get(key)
        if spec is None:
            raise ValidationError(f"line {lineno}: unknown config key {key!r}")
        if key in values:
            raise ValidationError(f"line {lineno}: duplicate key {key!r}")
        try:
            parsed = spec.parse(value)
        except ValidationError as exc:
            raise ValidationError(f"{key}: {exc}") from None
        if spec.check is not None and not spec.check(parsed):
            raise ValidationError(f"{key}: value {value!r} is out of range")
        values[key] = parsed
    return RunConfig(values)


def load_config(path: str) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())


def config_lines(cfg: RunConfig) -> list[str]:
    """Canonical echo: every schema key in schema order."""
    return [f"{key} = {_fmt(cfg[key])}" for key in SCHEMA]


def config_record(cfg: RunConfig) -> dict:
    return {key: _fmt(cfg[key]) for key in SCHEMA}


def describe_schema() -> str:
    """Documented defaults, one line per key."""
    width = max(len(k) for k in SCHEMA)
    return "\n".join(
        f"{key.ljust(width)}  default {_fmt(f.default)!r}: {f.help}"
        for key, f in SCHEMA.items()
    )


def world_from_config(cfg: RunConfig) -> WorldJoint:
    if cfg["world.kind"] == "scene":
        return build_scene_world(
            cfg["world.grid_w"],
            cfg["world.grid_h"],
            n_shapes=cfg["world.n_shapes"],
            n_colors=cfg["world.n_colors"],
            max_objects=cfg["world.max_objects"],
        )
    return build_random_factorized_world(
        cfg["world.grid_w"],
        cfg["world.grid_h"],
        cfg["world.vocab_size"],
        n_conditions=cfg["world.n_tables"],
        cells_per_condition=cfg["world.cells_per_table"],
        seed=cfg["world.table_seed"],
    )


def schedule_from_config(cfg: RunConfig) -> SamplerSchedule:
    try:
        return SamplerSchedule(
            mode=cfg["schedule.mode"],
            tokens_per_step=cfg["schedule.tokens_per_step"],
            order_policy=cfg["schedule.order_policy"],
            temperature=cfg["schedule.temperature"],
        )
    except ValueError as exc:
        raise ValidationError(f"schedule: {exc}") from None
