"""Config parsing: schema defaults, strict keys, the condition DSL."""

import ast
from dataclasses import fields
from pathlib import Path

import pytest

from maskcompose import cli, config
from maskcompose.config import (
    RunConfig,
    SCHEMA,
    config_lines,
    describe_schema,
    format_condition,
    load_config,
    parse_condition,
    parse_config_text,
    schedule_from_config,
    world_from_config,
)
from maskcompose.errors import ValidationError
from maskcompose.sampler import MODE_AUTOREGRESSIVE, ORDER_MAX_CONFIDENCE
from maskcompose.worlds import (
    ConditionSpec,
    FactorizedWorld,
    SceneWorld,
    attribute_present,
    cell_table,
    object_at_cell,
    relation,
)


class TestParsing:
    def test_empty_text_gives_all_defaults(self):
        cfg = parse_config_text("")
        for key, field in SCHEMA.items():
            if key == "conditions.weights":
                continue  # resolved against the (empty) condition list
            assert cfg[key] == field.default

    def test_comments_and_blanks_ignored(self):
        cfg = parse_config_text("# a comment\n\nworld.grid_w = 4\n")
        assert cfg["world.grid_w"] == 4

    def test_unknown_key_rejected_by_name(self):
        with pytest.raises(ValidationError, match="world.grdw"):
            parse_config_text("world.grdw = 3")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ValidationError, match="duplicate"):
            parse_config_text("world.grid_w = 3\nworld.grid_w = 4")

    def test_missing_equals_rejected(self):
        with pytest.raises(ValidationError, match="key = value"):
            parse_config_text("world.grid_w 3")

    def test_out_of_range_value_names_field(self):
        with pytest.raises(ValidationError, match="model.dropout_prob"):
            parse_config_text("model.dropout_prob = 1.5")

    def test_bad_int_names_field(self):
        with pytest.raises(ValidationError, match="world.grid_w"):
            parse_config_text("world.grid_w = wide")

    @pytest.mark.parametrize(
        "line",
        [
            "conditions.weights = nan",
            "conditions.weights = inf",
            "eval.weight_sweep = -1 -inf 1",
            "schedule.temperature = inf",
            "schedule.temperature = nan",
            "model.alpha = nan",
            "model.alpha = inf",
            "model.dropout_prob = nan",
        ],
    )
    def test_non_finite_number_names_field(self, line):
        with pytest.raises(ValidationError, match=line.split(" =")[0]):
            parse_config_text(line)

    def test_bad_enum_rejected(self):
        with pytest.raises(ValidationError, match="world.kind"):
            parse_config_text("world.kind = cubes")

    def test_echo_is_reparseable_fixed_point(self):
        cfg = parse_config_text(
            "world.grid_w = 4\n"
            "model.training_max_objects = 2\n"
            "conditions.specs = object_at_cell:0,1 attribute_present:shape,0\n"
            "conditions.weights = 1.0 -2.5\n"
        )
        text = "\n".join(config_lines(cfg))
        again = parse_config_text(text)
        assert again.values == cfg.values
        assert "\n".join(config_lines(again)) == text

    def test_load_config_reads_file(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("schedule.temperature = 0.7\n")
        assert load_config(str(p))["schedule.temperature"] == 0.7

    def test_override_rejects_unknown_key(self):
        with pytest.raises(ValidationError):
            RunConfig().override("nope.nope", 1)


class TestConditionDsl:
    def test_object_at_cell(self):
        assert parse_condition("object_at_cell:2,1") == object_at_cell(2, 1)

    def test_attribute_present(self):
        assert parse_condition("attribute_present:color,1") == attribute_present(
            "color", 1
        )

    def test_relation(self):
        assert parse_condition("relation:left_of,shape,0,color,1") == relation(
            "left_of", ("shape", 0), ("color", 1)
        )

    def test_cell_table(self):
        assert parse_condition("cell_table:c0") == cell_table("c0")

    @pytest.mark.parametrize(
        "token",
        [
            "object_at_cell",  # no payload separator
            "object_at_cell:1",  # wrong arity
            "object_at_cell:a,b",  # not integers
            "teleport:0,0",  # unknown kind
            "relation:sideways,shape,0,shape,1",  # unknown relation
            "attribute_present:size,0",  # unknown attribute kind
        ],
    )
    def test_malformed_tokens_rejected(self, token):
        with pytest.raises(ValidationError):
            parse_condition(token)

    def test_format_parse_roundtrip(self):
        specs = [
            object_at_cell(0, 2),
            attribute_present("shape", 1),
            relation("above", ("color", 0), ("color", 1)),
            cell_table("c3"),
        ]
        for spec in specs:
            assert parse_condition(format_condition(spec)) == spec


class TestWeights:
    def test_default_weights_are_ones(self):
        cfg = parse_config_text("conditions.specs = object_at_cell:0,0 cell_table:c0")
        assert cfg.weights() == (1.0, 1.0)

    def test_explicit_weights_kept(self):
        cfg = parse_config_text(
            "conditions.specs = object_at_cell:0,0\nconditions.weights = -1.0"
        )
        assert cfg.weights() == (-1.0,)

    def test_mismatched_weights_rejected(self):
        with pytest.raises(ValidationError, match="weights"):
            parse_config_text(
                "conditions.specs = object_at_cell:0,0\nconditions.weights = 1.0 2.0"
            )


class TestBuilders:
    def test_scene_world_from_config(self):
        cfg = parse_config_text(
            "world.grid_w = 2\nworld.grid_h = 2\nworld.n_colors = 2\n"
            "world.max_objects = 1\n"
        )
        world = world_from_config(cfg)
        assert isinstance(world, SceneWorld)
        assert (world.grid_w, world.grid_h, world.vocab_size) == (2, 2, 3)

    def test_factorized_world_from_config(self):
        cfg = parse_config_text(
            "world.kind = factorized\nworld.grid_w = 2\nworld.grid_h = 2\n"
            "world.vocab_size = 4\nworld.n_tables = 2\n"
        )
        world = world_from_config(cfg)
        assert isinstance(world, FactorizedWorld)
        assert world.vocab_size == 4
        assert sorted(world.table_conditions) == ["c0", "c1"]

    def test_schedule_from_config(self):
        cfg = parse_config_text(
            "schedule.mode = autoregressive\nschedule.temperature = 1.0\n"
            "schedule.seed = 7\n"
        )
        sched = schedule_from_config(cfg)
        assert sched.mode == MODE_AUTOREGRESSIVE
        assert sched.temperature == 1.0
        # the seed is an argument of each run, not part of the schedule
        assert cfg["schedule.seed"] == 7
        assert [f.name for f in fields(sched)] == [
            "mode", "tokens_per_step", "order_policy", "temperature"
        ]

    def test_order_policy_from_config(self):
        cfg = parse_config_text("schedule.order_policy = max_confidence\n")
        assert schedule_from_config(cfg).order_policy == ORDER_MAX_CONFIDENCE

    def test_conditions_accessor_returns_specs(self):
        cfg = parse_config_text("conditions.specs = object_at_cell:1,0")
        (spec,) = cfg.conditions()
        assert isinstance(spec, ConditionSpec)


class TestSchemaDoc:
    def test_every_key_documented(self):
        text = describe_schema()
        for key in SCHEMA:
            assert key in text


def _config_reads(module) -> set:
    """The string keys a module reads as cfg["..."] or self.values["..."]."""
    keys = set()
    for node in ast.walk(ast.parse(Path(module.__file__).read_text(encoding="utf-8"))):
        if not (isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Constant)
                and isinstance(node.slice.value, str)):
            continue
        target = node.value
        if (isinstance(target, ast.Name) and target.id == "cfg") or (
            isinstance(target, ast.Attribute) and target.attr == "values"
            and isinstance(target.value, ast.Name) and target.value.id == "self"
        ):
            keys.add(node.slice.value)
    return keys


def test_every_schema_key_has_a_reader():
    # a key nothing reads is a setting that silently does nothing
    read = _config_reads(cli) | _config_reads(config)
    assert sorted(set(SCHEMA) - read) == []
