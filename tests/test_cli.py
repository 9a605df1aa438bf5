"""Command line behavior: artifact pipeline, exit codes, determinism."""

import hashlib
import json
import math
import os
import shutil
from pathlib import Path

import numpy as np
import pytest

from maskcompose import cli, evalharness
from maskcompose.cli import (
    EXIT_OK,
    EXIT_SAMPLING,
    EXIT_SUITE,
    EXIT_VALIDATION,
    main,
)
from maskcompose.codec import read_ppm
from maskcompose.config import config_record, parse_config_text
from maskcompose.container import (
    load_count_model,
    load_world,
    read_container,
    save_count_model,
    write_container,
)
from maskcompose.countmodel import fit_count_model
from maskcompose.evalharness import TIMING_FIELDS, record_line, run_negation_eval, run_ood_eval
from maskcompose.sampler import MaskedState, SamplerSchedule
from maskcompose.worlds import (
    build_scene_world,
    exact_conditional_model,
    object_at_cell,
    relation,
)

SMALL_WORLD = (
    "world.grid_w = 2\n"
    "world.grid_h = 2\n"
    "world.n_shapes = 1\n"
    "world.n_colors = 1\n"
    "world.max_objects = 2\n"
)


def write_cfg(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def digest_dir(out):
    hashes = {}
    for name in sorted(os.listdir(out)):
        with open(os.path.join(out, name), "rb") as fh:
            hashes[name] = hashlib.sha256(fh.read()).hexdigest()
    return hashes


class TestBuildWorld:
    def test_writes_loadable_artifact_with_config_echo(self, tmp_path):
        cfg = write_cfg(tmp_path, SMALL_WORLD)
        out = str(tmp_path / "run")
        assert main(["build-world", "--config", cfg, "--out", out]) == EXIT_OK
        path = os.path.join(out, "world.dcw1")
        world = load_world(path)
        assert (world.grid_w, world.grid_h) == (2, 2)
        names = [s.name for s in read_container(path)]
        assert "config" in names

    def test_factorized_roundtrip(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            "world.kind = factorized\nworld.grid_w = 2\nworld.grid_h = 2\n"
            "world.vocab_size = 3\n",
        )
        out = str(tmp_path / "run")
        assert main(["build-world", "--config", cfg, "--out", out]) == EXIT_OK
        world = load_world(os.path.join(out, "world.dcw1"))
        assert world.vocab_size == 3


class TestFitModel:
    def test_artifact_matches_in_memory_fit(self, tmp_path):
        cfg = write_cfg(tmp_path, SMALL_WORLD + "model.n_samples = 400\nmodel.seed = 3\n")
        out = str(tmp_path / "run")
        assert main(["fit-model", "--config", cfg, "--out", out]) == EXIT_OK
        loaded = load_count_model(os.path.join(out, "model.dcw1"))
        world = build_scene_world(2, 2, n_shapes=1, n_colors=1, max_objects=2)
        direct = fit_count_model(world, 400, rng_seed=3)
        tokens = MaskedState.fully_masked(4).tokens
        want = direct.predict(tokens, object_at_cell(0, 0))
        got = loaded.predict(tokens, object_at_cell(0, 0))
        for p in range(tokens.size):
            assert np.allclose(got[p], want[p])

    def test_exact_kind_is_a_validation_error(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "model.kind = exact\n")
        out = str(tmp_path / "run")
        assert main(["fit-model", "--config", cfg, "--out", out]) == EXIT_VALIDATION
        assert "exact" in capsys.readouterr().err


class TestSample:
    def test_rows_report_real_satisfaction(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            SMALL_WORLD + "model.kind = exact\nsample.n_runs = 8\n"
            "conditions.specs = object_at_cell:0,0\n",
        )
        out = str(tmp_path / "run")
        assert main(["sample", "--config", cfg, "--out", out]) == EXIT_OK
        world = build_scene_world(2, 2, n_shapes=1, n_colors=1, max_objects=2)
        rows = 0
        for line in open(os.path.join(out, "samples.txt")):
            if line.startswith("#"):
                continue
            fields = dict(part.split("=") for part in line.split())
            tokens = np.array([int(t) for t in fields["tokens"].split(",")], np.int16)
            assert tokens.shape == (4,)
            sat = world.check_conditions(tokens, [object_at_cell(0, 0)])
            assert fields["satisfied"] == ("1" if sat[0] else "0")
            rows += 1
        assert rows == 8

    def test_relation_on_a_scene_world(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            SMALL_WORLD.replace("world.n_colors = 1", "world.n_colors = 2")
            + "model.kind = exact\nsample.n_runs = 16\n"
            "conditions.specs = relation:left_of,color,0,color,1\n",
        )
        out = str(tmp_path / "run")
        assert main(["sample", "--config", cfg, "--out", out]) == EXIT_OK
        world = build_scene_world(2, 2, n_shapes=1, n_colors=2, max_objects=2)
        cond = relation("left_of", ("color", 0), ("color", 1))
        rows = [ln for ln in open(os.path.join(out, "samples.txt")) if not ln.startswith("#")]
        assert len(rows) == 16
        for line in rows:
            fields = dict(part.split("=") for part in line.split())
            tokens = np.array([int(t) for t in fields["tokens"].split(",")], np.int16)
            assert fields["satisfied"] == ("1" if world.predicate(tokens, cond) else "0")

    def test_header_echoes_config(self, tmp_path):
        cfg = write_cfg(tmp_path, SMALL_WORLD + "model.kind = exact\n")
        out = str(tmp_path / "run")
        main(["sample", "--config", cfg, "--out", out])
        text = open(os.path.join(out, "samples.txt")).read()
        assert "# world.grid_w = 2" in text
        assert "# schedule.temperature = 0.9" in text

    def test_missing_count_model_is_validation_error(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, SMALL_WORLD)
        out = str(tmp_path / "run")
        assert main(["sample", "--config", cfg, "--out", out]) == EXIT_VALIDATION
        assert "fit-model" in capsys.readouterr().err

    @pytest.mark.parametrize("weight", ["nan", "inf"])
    def test_non_finite_weight_is_validation_error(self, tmp_path, capsys, weight):
        cfg = write_cfg(
            tmp_path,
            SMALL_WORLD + "model.kind = exact\n"
            "conditions.specs = object_at_cell:0,0\n"
            f"conditions.weights = {weight}\n",
        )
        out = str(tmp_path / "run")
        assert main(["sample", "--config", cfg, "--out", out]) == EXIT_VALIDATION
        assert "conditions.weights" in capsys.readouterr().err

    def test_truncated_model_artifact_is_validation_error(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, SMALL_WORLD + "model.n_samples = 200\n")
        out = str(tmp_path / "run")
        assert main(["fit-model", "--config", cfg, "--out", out]) == EXIT_OK
        path = os.path.join(out, "model.dcw1")
        with open(path, "rb") as fh:
            head = fh.read(40)
        with open(path, "wb") as fh:
            fh.write(head)
        assert main(["sample", "--config", cfg, "--out", out]) == EXIT_VALIDATION
        assert "model.dcw1" in capsys.readouterr().err

    def test_contradictory_conditions_exit_sampling(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path,
            SMALL_WORLD.replace("world.max_objects = 2", "world.max_objects = 1")
            + "model.kind = exact\n"
            "conditions.specs = object_at_cell:0,0 object_at_cell:1,1\n",
        )
        out = str(tmp_path / "run")
        assert main(["sample", "--config", cfg, "--out", out]) == EXIT_SAMPLING
        assert "object_at_cell" in capsys.readouterr().err

    def test_an_aborted_run_fails_the_command(self, tmp_path, capsys):
        # three tokens drawn at once from per-position marginals can leave
        # the support; a run that does so aborts, and sample writes nothing
        cfg = write_cfg(
            tmp_path,
            "world.grid_w = 3\nworld.grid_h = 3\nworld.n_shapes = 1\nworld.n_colors = 2\n"
            "world.max_objects = 4\nmodel.kind = exact\nsample.n_runs = 50\n"
            "schedule.order_policy = max_confidence\nschedule.tokens_per_step = 3\n"
            "schedule.temperature = 1.0\n",
        )
        out = str(tmp_path / "run")
        assert main(["sample", "--config", cfg, "--out", out]) == EXIT_SAMPLING
        assert capsys.readouterr().err.startswith("error: ")
        assert not os.path.exists(os.path.join(out, "samples.txt"))

    def test_seed_flag_changes_samples(self, tmp_path):
        cfg = write_cfg(tmp_path, SMALL_WORLD + "model.kind = exact\n")
        out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
        main(["sample", "--config", cfg, "--out", out_a])
        main(["sample", "--config", cfg, "--out", out_b, "--seed", "99"])
        rows = lambda p: [
            ln for ln in open(os.path.join(p, "samples.txt")) if not ln.startswith("#")
        ]
        assert rows(out_a) != rows(out_b)

    def test_render_writes_readable_ppm(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            SMALL_WORLD + "model.kind = exact\nsample.n_runs = 2\n"
            "sample.render = true\n"
            "codebook.n_entries = 4\ncodebook.patch = 2\ncodebook.cell_px = 2\n"
            "codebook.n_images = 6\ncodebook.iters = 3\n",
        )
        out = str(tmp_path / "run")
        assert main(["learn-codebook", "--config", cfg, "--out", out]) == EXIT_OK
        assert main(["sample", "--config", cfg, "--out", out]) == EXIT_OK
        img = read_ppm(os.path.join(out, "sample_000.ppm"))
        assert img.shape == (4, 4, 3)

    def test_render_without_codebook_is_validation_error(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path, SMALL_WORLD + "model.kind = exact\nsample.render = true\n"
        )
        out = str(tmp_path / "run")
        assert main(["sample", "--config", cfg, "--out", out]) == EXIT_VALIDATION
        assert "learn-codebook" in capsys.readouterr().err


class TestEval:
    def eval_cfg(self, tmp_path, extra=""):
        return write_cfg(
            tmp_path,
            SMALL_WORLD + "model.kind = exact\neval.n_samples = 40\n"
            "eval.n_components = 1\n" + extra,
        )

    def test_error_suite_rows_and_header(self, tmp_path):
        out = str(tmp_path / "run")
        cfg = self.eval_cfg(tmp_path)
        assert main(["eval", "--config", cfg, "--out", out]) == EXIT_OK
        records = [
            json.loads(ln) for ln in open(os.path.join(out, "reports.jsonl"))
        ]
        assert records[0]["type"] == "header"
        assert records[0]["config"]["eval.n_samples"] == "40"
        labels = [r["label"] for r in records if r["type"] == "eval_report"]
        assert labels == ["composed-1", "joint-1"]

    def test_no_timing_fields_in_report_files(self, tmp_path):
        out = str(tmp_path / "run")
        cfg = self.eval_cfg(tmp_path)
        main(["eval", "--config", cfg, "--out", out])
        for line in open(os.path.join(out, "reports.jsonl")):
            assert not set(json.loads(line)) & set(TIMING_FIELDS)

    def test_suite_flag_overrides_config(self, tmp_path):
        out = str(tmp_path / "run")
        cfg = self.eval_cfg(
            tmp_path, "conditions.specs = object_at_cell:0,0\nschedule.temperature = 1.0\n"
        )
        assert main(
            ["eval", "--config", cfg, "--out", out, "--suite", "fidelity"]
        ) == EXIT_OK
        records = [json.loads(ln) for ln in open(os.path.join(out, "reports.jsonl"))]
        assert records[1]["type"] == "fidelity"

    def test_fidelity_completes_when_runs_abort(self, tmp_path):
        # three tokens drawn at once from per-position marginals can leave
        # the support; such a run gives no grid and its mass lies off it
        cfg = write_cfg(
            tmp_path,
            "world.grid_w = 3\nworld.grid_h = 3\nworld.n_shapes = 1\nworld.n_colors = 1\n"
            "world.max_objects = 3\nmodel.kind = exact\neval.n_samples = 50\n"
            "schedule.order_policy = max_confidence\nschedule.tokens_per_step = 3\n",
        )
        out = str(tmp_path / "run")
        assert main(["eval", "--config", cfg, "--out", out, "--suite", "fidelity"]) == EXIT_OK
        records = [json.loads(ln) for ln in open(os.path.join(out, "reports.jsonl"))]
        assert 0.0 < records[1]["tv"] <= 1.0

    @pytest.mark.parametrize(
        "grid_h, code, needle",
        [
            # two cells hold at most two conditions of the cell pool
            (1, EXIT_VALIDATION, "cannot draw 3 distinct conditions from a pool of 2"),
            # four cells, but no scene holds more than two objects
            (2, EXIT_SAMPLING, "3-condition"),
        ],
        ids=["over-cell-count", "over-max-objects"],
    )
    def test_error_suite_rejects_three_components(
        self, tmp_path, capsys, monkeypatch, grid_h, code, needle
    ):
        cfg = write_cfg(
            tmp_path,
            SMALL_WORLD.replace("world.grid_h = 2", f"world.grid_h = {grid_h}")
            + "model.kind = exact\neval.n_samples = 20\neval.n_components = 3\n",
        )
        runs = []
        real = evalharness.run_to_completion

        def spy(*args):
            runs.append(args)
            return real(*args)

        monkeypatch.setattr(evalharness, "run_to_completion", spy)
        out = str(tmp_path / "run")
        assert main(["eval", "--config", cfg, "--out", out, "--suite", "error"]) == code
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert needle in err
        assert runs == []  # k = 1 and 2 did not sample before k = 3 failed

    def test_negation_needs_a_condition(self, tmp_path, capsys):
        out = str(tmp_path / "run")
        cfg = self.eval_cfg(tmp_path)
        code = main(["eval", "--config", cfg, "--out", out, "--suite", "negation"])
        assert code == EXIT_VALIDATION
        assert "conditions.specs" in capsys.readouterr().err

    def test_rerun_reports_byte_identical(self, tmp_path):
        out = str(tmp_path / "run")
        cfg = self.eval_cfg(tmp_path)
        main(["eval", "--config", cfg, "--out", out])
        first = digest_dir(out)
        main(["eval", "--config", cfg, "--out", out])
        assert digest_dir(out) == first


class TestArtifactKeys:
    """A model artifact answers for the keys that made it: eval and sample
    refuse one fit under other world or fit keys, naming the key and both
    values. model.seed is not compared."""

    FIT = SMALL_WORLD + "model.n_samples = 200\neval.n_samples = 10\nsample.n_runs = 2\n"
    # one changed value per compared key
    CHANGED = {
        "world.kind": "factorized",
        "world.grid_w": "3",
        "world.grid_h": "3",
        "world.n_shapes": "2",
        "world.n_colors": "2",
        "world.max_objects": "3",
        "world.vocab_size": "4",
        "world.n_tables": "3",
        "world.cells_per_table": "2",
        "world.table_seed": "1",
        "model.n_samples": "300",
        "model.alpha": "1.0",
        "model.dropout_prob": "0.2",
        "model.training_max_objects": "1",
    }

    @pytest.fixture(scope="class")
    def fitted(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("fitted")
        out = str(root / "run")
        assert main(["fit-model", "--config", write_cfg(root, self.FIT), "--out", out]) == EXIT_OK
        return out

    def test_every_compared_key_has_a_case(self):
        assert sorted(self.CHANGED) == sorted(cli._FIT_KEYS)

    @pytest.mark.parametrize("command", ["eval", "sample"])
    @pytest.mark.parametrize("key", sorted(CHANGED))
    def test_a_changed_key_exits_two(self, tmp_path, capsys, fitted, command, key):
        kept = [ln for ln in self.FIT.splitlines() if not ln.startswith(f"{key} =")]
        cfg = write_cfg(tmp_path, "\n".join(kept + [f"{key} = {self.CHANGED[key]}"]) + "\n")
        before = digest_dir(fitted)
        assert main([command, "--config", cfg, "--out", fitted]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        fit_value = config_record(parse_config_text(self.FIT))[key]
        assert f"{key} = {fit_value}," in err and f"{key} = {self.CHANGED[key]};" in err
        assert digest_dir(fitted) == before

    def test_a_new_seed_still_samples(self, tmp_path, fitted):
        cfg = write_cfg(tmp_path, self.FIT)
        assert main(["sample", "--config", cfg, "--out", fitted, "--seed", "7"]) == EXIT_OK
        assert main(["eval", "--config", cfg, "--out", fitted, "--seed", "7"]) == EXIT_OK

    @staticmethod
    def with_echo(tmp_path, fitted, edit) -> str:
        """A copy of the fitted run whose model echo's lines went through edit."""
        out = tmp_path / "edited"
        shutil.copytree(fitted, out)
        path = str(out / "model.dcw1")
        sections = read_container(path)
        for sec in sections:
            if sec.name == "config":
                sec.data = ("\n".join(edit(sec.data.decode().splitlines())) + "\n").encode()
        write_container(path, sections)
        return str(out)

    def test_a_retired_key_at_its_kept_value_loads(self, tmp_path, fitted):
        # what every artifact written before world.relational went carries
        out = self.with_echo(tmp_path, fitted, lambda ls: ls + ["world.relational = false"])
        cfg = write_cfg(tmp_path, self.FIT)
        assert main(["sample", "--config", cfg, "--out", out]) == EXIT_OK
        assert main(["eval", "--config", cfg, "--out", out]) == EXIT_OK

    @pytest.mark.parametrize("edit, needle", [
        (lambda ls: ls + ["world.relational = true"], "world.relational = true"),
        (lambda ls: ls + ["world.bogus = 1"], "'world.bogus'"),
        (lambda ls: [ln for ln in ls if not ln.startswith("model.alpha =")], "no model.alpha"),
    ], ids=["retired key at another value", "unknown key", "missing compared key"])
    def test_an_echo_it_cannot_vouch_for_exits_two(self, tmp_path, capsys, fitted, edit, needle):
        out = self.with_echo(tmp_path, fitted, edit)
        cfg = write_cfg(tmp_path, self.FIT)
        before = digest_dir(out)
        assert main(["sample", "--config", cfg, "--out", out]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert needle in err and "run fit-model again" in err
        assert digest_dir(out) == before

    def test_the_header_names_the_artifact_seed(self, tmp_path, fitted):
        out = str(tmp_path / "run")
        shutil.copytree(fitted, out)
        cfg = write_cfg(tmp_path, self.FIT)
        assert main(["eval", "--config", cfg, "--out", out, "--seed", "7"]) == EXIT_OK
        with open(os.path.join(out, "reports.jsonl")) as fh:
            header = json.loads(fh.readline())
        assert header["model_seed"] == 0
        assert header["config"]["schedule.seed"] == "7"

    def test_an_artifact_without_its_config_exits_two(self, tmp_path, capsys):
        out = tmp_path / "run"
        out.mkdir()
        world = build_scene_world(2, 2, n_shapes=1, n_colors=1, max_objects=2)
        save_count_model(str(out / "model.dcw1"), fit_count_model(world, 200))
        cfg = write_cfg(tmp_path, self.FIT)
        assert main(["sample", "--config", cfg, "--out", str(out)]) == EXIT_VALIDATION
        assert "no config echo" in capsys.readouterr().err


class TestUnevaluableConditions:
    """A condition the world cannot evaluate is a bad config: exit 2 and one
    error line naming the condition and the world kind, not a traceback."""

    FACTORIZED = (
        "world.kind = factorized\nworld.grid_w = 2\nworld.grid_h = 2\n"
        "world.vocab_size = 3\nmodel.kind = exact\neval.n_samples = 20\n"
    )

    def assert_validation_exit(self, capsys, argv, *needles):
        assert main(argv) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        for needle in needles:
            assert needle in err

    @pytest.mark.parametrize(
        "spec, needle",
        [("cell_table:c0", "'cell_table', 'c0'"),
         ("attribute_present:shape,0", "'attribute_present', 'shape', 0")],
    )
    def test_negation_on_factorized_world(self, tmp_path, capsys, spec, needle):
        cfg = write_cfg(tmp_path, self.FACTORIZED + f"conditions.specs = {spec}\n")
        out = str(tmp_path / "run")
        self.assert_validation_exit(
            capsys, ["eval", "--config", cfg, "--out", out, "--suite", "negation"],
            needle, "factorized worlds",
        )


class TestOutOfRangeConfigs:
    """Values the schema parses but the program cannot run: exit 2 and one
    error line, not a traceback."""

    EXACT = SMALL_WORLD + "model.kind = exact\n"
    FACTORIZED = (
        "world.kind = factorized\nworld.grid_w = 2\nworld.grid_h = 2\n"
        "world.vocab_size = 3\nmodel.n_samples = 200\n"
    )

    @pytest.mark.parametrize(
        "command, text, needle",
        [
            ("sample", "world.grid_w = 1\nworld.grid_h = 1\nworld.n_colors = 40000\n"
             "world.max_objects = 1\nmodel.kind = exact\n", "vocabulary of 40001 tokens"),
            ("sample", "world.kind = factorized\nworld.grid_w = 1\nworld.grid_h = 1\n"
             "world.vocab_size = 40000\nworld.n_tables = 1\nmodel.kind = exact\n",
             "vocabulary of 40000 tokens"),
            ("sample", EXACT + "schedule.mode = autoregressive\nschedule.tokens_per_step = 2\n",
             "autoregressive mode forces tokens_per_step = 1"),
            ("bench", EXACT + "schedule.mode = autoregressive\n",
             "autoregressive mode forces tokens_per_step = 1"),
            ("bench", EXACT + "bench.tokens_per_step_grid = 0\n", "bench.tokens_per_step_grid"),
            ("bench", EXACT + "bench.n_conditions_grid = -1\n", "bench.n_conditions_grid"),
            ("bench", EXACT + "bench.n_conditions_grid = 5\n",
             "cannot draw 5 distinct conditions from a pool of 4"),
            ("fit-model", FACTORIZED + "model.training_max_objects = 1\n",
             "a factorized world has no object budget"),
            # the ood pipeline stops at the fit of its budgeted model
            ("fit-model eval", FACTORIZED + "model.training_max_objects = 2\neval.suite = ood\n",
             "a factorized world has no object budget"),
            # refused before the model artifact is looked for
            ("eval", SMALL_WORLD + "model.n_samples = 200\n"
             "model.training_max_objects = 2\neval.suite = ood\neval.n_components = 2\n",
             "eval.n_components (2) > model.training_max_objects (2)"),
            ("eval", EXACT + "conditions.specs = object_at_cell:0,0 object_at_cell:1,1\n"
             "eval.suite = negation\n", "conditions.specs"),
            ("eval", EXACT + "conditions.specs = object_at_cell:0,0\nconditions.weights = 2.0\n"
             "eval.suite = negation\n", "conditions.weights"),
            ("eval", EXACT + "conditions.specs = object_at_cell:0,0 object_at_cell:1,1\n"
             "eval.suite = fidelity\n", "conditions.specs"),
            ("eval", EXACT + "conditions.specs = object_at_cell:0,0\nconditions.weights = -1.0\n"
             "eval.suite = fidelity\n", "conditions.weights"),
        ],
        ids=["scene-vocab", "factorized-vocab", "ar-tokens-per-step", "ar-bench-grid",
             "bench-zero-tokens-per-step", "bench-negative-conditions", "bench-conditions-over-pool",
             "factorized-training-budget", "factorized-ood", "ood-conditions-within-budget",
             "negation-two-conditions", "negation-weight", "fidelity-two-conditions",
             "fidelity-weight"],
    )
    def test_exits_two_with_an_error_line(self, tmp_path, capsys, command, text, needle):
        cfg = write_cfg(tmp_path, text)
        out = str(tmp_path / "run")
        # a pipeline runs its commands in order and must stop at the refusal
        for cmd in command.split():
            code = main([cmd, "--config", cfg, "--out", out])
            if code != EXIT_OK:
                break
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert needle in err


class TestOodSuite:
    """fit-model then eval --suite ood on configs/ood.cfg, end to end."""

    CFG = Path(__file__).resolve().parents[1] / "configs" / "ood.cfg"

    def run_ood(self, tmp_path, seed=None):
        out = str(tmp_path / "run")
        flags = ["--config", str(self.CFG), "--out", out]
        flags += [] if seed is None else ["--seed", str(seed)]
        for cmd in ("fit-model", "eval"):
            assert main([cmd] + flags) == EXIT_OK
        with open(os.path.join(out, "reports.jsonl")) as fh:
            header, record = [json.loads(ln) for ln in fh]
        assert header["type"] == "header"
        return record

    def test_record_is_criterion_five(self, tmp_path, capsys):
        world = build_scene_world(3, 3, n_shapes=1, n_colors=2, max_objects=4)
        model = fit_count_model(world, 30_000, rng_seed=0, training_max_objects=2)
        expected = run_ood_eval(model, world, 2, 3, n_runs=100, rng_seed=0).to_record()
        assert self.run_ood(tmp_path) == json.loads(record_line(expected))
        # the drawn set is printed as a config line that a sample run can take
        line = next(ln for ln in capsys.readouterr().out.splitlines()
                    if ln.startswith("conditions.specs = "))
        assert line == (
            "conditions.specs = object_at_cell:0,1 object_at_cell:0,2 object_at_cell:1,2"
        )
        specs = parse_config_text(line).conditions()
        assert [list(c.key()) for c in specs] == expected["condition_keys"]

    def test_seed_flag_changes_the_record(self, tmp_path):
        first = self.run_ood(tmp_path / "a")
        reseeded = self.run_ood(tmp_path / "b", seed=1)
        assert reseeded["type"] == "ood_result"
        assert reseeded != first

    @pytest.mark.parametrize(
        "edit",
        [lambda t: t + "model.kind = exact\n",
         lambda t: t.replace("model.training_max_objects = 2", "model.training_max_objects = none")],
        ids=["exact-model", "no-budget"],
    )
    def test_refuses_a_model_without_a_budget(self, tmp_path, capsys, edit):
        cfg = write_cfg(tmp_path, edit(self.CFG.read_text()))
        out = str(tmp_path / "run")
        assert main(["eval", "--config", cfg, "--out", out]) == EXIT_VALIDATION
        assert "model.training_max_objects" in capsys.readouterr().err


class TestNegationSuite:
    """eval on configs/negation.cfg, end to end."""

    CFG = Path(__file__).resolve().parents[1] / "configs" / "negation.cfg"

    def test_record_is_the_sweep_of_the_config(self, tmp_path):
        out = str(tmp_path / "run")
        assert main(["eval", "--config", str(self.CFG), "--out", out]) == EXIT_OK
        with open(os.path.join(out, "reports.jsonl")) as fh:
            header, record = [json.loads(ln) for ln in fh]
        assert header["type"] == "header"
        world = build_scene_world(2, 2, n_shapes=1, n_colors=1, max_objects=4)
        expected = run_negation_eval(
            exact_conditional_model(world), world, object_at_cell(0, 0), 2000,
            weights=(-3.0, -1.0, 0.0, 1.0, 3.0),
            sched=SamplerSchedule(temperature=1.0), rng_seed=0,
        ).to_record()
        assert record == json.loads(record_line(expected))


class TestBench:
    def test_rows_obey_count_law_and_exclude_timing(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            SMALL_WORLD + "model.kind = exact\nbench.n_runs = 2\n"
            "bench.tokens_per_step_grid = 1 2 4\nbench.n_conditions_grid = 0 1\n",
        )
        out = str(tmp_path / "run")
        assert main(["bench", "--config", cfg, "--out", out]) == EXIT_OK
        rows = [
            json.loads(ln)
            for ln in open(os.path.join(out, "bench.jsonl"))
        ]
        assert rows[0]["type"] == "header"
        for r in rows[1:]:
            assert r["type"] == "bench_row"
            steps = math.ceil(4 / r["tokens_per_step"])
            assert r["steps"] == steps
            assert r["evaluations"] == steps * (r["n_conditions"] + 1)
            assert "wall_per_run" not in r


class TestArtifactPipelineDeterminism:
    def test_full_rerun_is_byte_identical(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            SMALL_WORLD + "model.n_samples = 300\nsample.n_runs = 3\n"
            "eval.n_samples = 25\neval.n_components = 1\n"
            "codebook.n_entries = 4\ncodebook.patch = 2\ncodebook.cell_px = 2\n"
            "codebook.n_images = 6\ncodebook.iters = 3\nbench.n_runs = 1\n",
        )
        out = str(tmp_path / "run")
        commands = ["build-world", "fit-model", "learn-codebook", "sample", "eval", "bench"]
        for cmd in commands:
            assert main([cmd, "--config", cfg, "--out", out]) == EXIT_OK
        first = digest_dir(out)
        for cmd in commands:
            assert main([cmd, "--config", cfg, "--out", out]) == EXIT_OK
        assert digest_dir(out) == first
        assert set(first) >= {
            "world.dcw1", "model.dcw1", "codebook.dcw1",
            "samples.txt", "reports.jsonl", "bench.jsonl",
        }

    def test_commands_do_not_mutate_inputs(self, tmp_path):
        cfg = write_cfg(tmp_path, SMALL_WORLD + "model.n_samples = 300\n")
        out = str(tmp_path / "run")
        main(["build-world", "--config", cfg, "--out", out])
        main(["fit-model", "--config", cfg, "--out", out])
        before = digest_dir(out)
        main(["sample", "--config", cfg, "--out", out])
        main(["eval", "--config", cfg, "--out", out])
        after = digest_dir(out)
        for name in before:  # artifacts written earlier must be untouched
            assert after[name] == before[name]
