"""Command line front end: reproducible runs wired from config files.

Every command reads one RunConfig (defaults when --config is omitted), works
inside a run directory, and echoes the full resolved config into whatever it
writes: DCW1 artifacts carry a trailing "config" text section, samples.txt
starts with commented key=value lines, report streams open with a header
record. Reruns with the same config and seed produce byte-identical files;
wall-clock fields are stripped from report files so timing noise never leaks
into them. A command that reads model.dcw1 parses its echo back and refuses
an artifact fit under other world keys or other keys of the fitted law; a
key the schema retired loads only at the value whose behaviour was kept.

Exit codes: 0 success, 2 config or input validation, 3 sampling failure
(impossible condition sets and kin), 4 property-suite failure.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .codec import decode, encode, learn_codebook_from_images, write_ppm
from .config import (
    SCHEMA,
    RunConfig,
    config_lines,
    config_record,
    format_condition,
    load_config,
    parse_config_text,
    schedule_from_config,
    world_from_config,
)
from .container import (
    Section,
    load_codebook,
    load_count_model,
    read_container,
    save_codebook,
    save_count_model,
    save_world,
)
from .countmodel import fit_count_model
from .errors import (
    AllMassZero,
    EmptyIntersection,
    MaskComposeError,
    ValidationError,
)
from .evalharness import (
    _satisfiable_sets,
    fidelity_tv,
    format_table,
    predicate_pool,
    record_line,
    run_bench,
    run_error_eval,
    run_negation_eval,
    run_ood_eval,
    sample_arm,
    strip_timing,
)
from .worlds import ConditionSpec, SceneWorld, exact_conditional_model, render_tokens_to_image

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_SAMPLING = 3
EXIT_SUITE = 4

_SAMPLING_ERRORS = (AllMassZero, EmptyIntersection)


def _echo_section(cfg: RunConfig, command: str) -> Section:
    text = f"# command = {command}\n" + "\n".join(config_lines(cfg)) + "\n"
    return Section("config", {"format": "keyvalue"}, text.encode("utf-8"))


def _header_record(cfg: RunConfig, command: str, model_seed=None) -> dict:
    """A report stream's first record: the command, the model artifact's
    seed (None without an artifact) and the config."""
    return {"type": "header", "command": command, "model_seed": model_seed,
            "config": config_record(cfg)}


def _out_dir(cfg: RunConfig) -> str:
    out = cfg["paths.out"]
    os.makedirs(out, exist_ok=True)
    return out


def _write_reports(path: str, records: list[dict]):
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(record_line(strip_timing(rec)) + "\n")


# the keys an artifact must share with the config that reads it: the world,
# and every model key that changes the fitted law (model.seed does not, so
# `sample --seed` may reseed the runs)
_FIT_KEYS = [key for key in SCHEMA if key.startswith("world.")] + [
    "model.n_samples", "model.alpha", "model.dropout_prob", "model.training_max_objects",
]
# what _fit_config reads from an echo: the compared keys and the seed the
# report header names
_ECHO_KEYS = _FIT_KEYS + ["model.seed"]
# keys the schema no longer has, each with the value whose behaviour was kept
# when it went: an echo that carries one at that value was fit as today
_RETIRED_KEYS = {"world.relational": "false"}


def _fit_config(path: str) -> RunConfig:
    """The _ECHO_KEYS of the config that fit-model echoed into the model
    artifact at path; any other schema key of the echo is not read. A retired
    key at another value than its kept one, a key the schema never had, or a
    missing _ECHO_KEYS key refuses the artifact."""
    echo = [s for s in read_container(path) if s.name == "config"]
    if not echo:
        raise ValidationError(f"model artifact {path} has no config echo; run fit-model again")
    try:
        kept, found = [], set()
        for raw in echo[0].data.decode("utf-8").splitlines():
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = (part.strip() for part in line.partition("="))
            if key in _RETIRED_KEYS:
                if value != _RETIRED_KEYS[key]:
                    raise ValidationError(
                        f"{key} = {value}, which was retired; only "
                        f"{key} = {_RETIRED_KEYS[key]} still loads"
                    )
            elif key not in SCHEMA:
                raise ValidationError(f"unknown config key {key!r}")
            elif key in _ECHO_KEYS:
                kept.append(line)
                found.add(key)
        missing = [key for key in _ECHO_KEYS if key not in found]
        if missing:
            raise ValidationError(f"no {missing[0]} line")
        return parse_config_text("\n".join(kept))
    except (UnicodeDecodeError, ValidationError) as exc:
        raise ValidationError(
            f"model artifact {path}: config echo: {exc}; run fit-model again"
        ) from None


def _resolve_model(cfg: RunConfig, world, out: str):
    """The model the config asks for, and the seed its artifact was fit
    with (None for the exact model, which has no artifact)."""
    if cfg["model.kind"] == "exact":
        return exact_conditional_model(world), None
    path = os.path.join(out, "model.dcw1")
    if not os.path.exists(path):
        raise ValidationError(f"missing model artifact {path}; run fit-model first")
    model = load_count_model(path)
    fit = _fit_config(path)
    for key in _FIT_KEYS:
        if fit[key] != cfg[key]:
            was, now = config_record(fit)[key], config_record(cfg)[key]
            raise ValidationError(
                f"model artifact {path} was fit with {key} = {was}, "
                f"but the config has {key} = {now}; run fit-model again"
            )
    return model, fit["model.seed"]


def _suite_condition(cfg: RunConfig, suite: str):
    """The one condition the negation or fidelity suite samples, at weight 1."""
    conds = cfg.conditions()
    if len(conds) > 1 or (suite == "negation" and not conds):
        need = "exactly" if suite == "negation" else "at most"
        raise ValidationError(
            f"{suite} suite needs {need} one conditions.specs entry, got {len(conds)}"
        )
    if any(w != 1.0 for w in cfg.weights()):
        raise ValidationError(f"{suite} suite samples at weight 1; conditions.weights must be 1.0")
    return conds[0] if conds else None


# commands --------------------------------------------------------------------

def cmd_build_world(cfg: RunConfig) -> int:
    out = _out_dir(cfg)
    world = world_from_config(cfg)
    path = os.path.join(out, "world.dcw1")
    save_world(path, world, extra=[_echo_section(cfg, "build-world")])
    print(f"wrote {path} ({world.grid_w}x{world.grid_h}, vocab {world.vocab_size})")
    return EXIT_OK


def cmd_fit_model(cfg: RunConfig) -> int:
    if cfg["model.kind"] != "count":
        raise ValidationError(
            "model.kind = exact needs no fitting; sample and eval build it in memory"
        )
    out = _out_dir(cfg)
    world = world_from_config(cfg)
    model = fit_count_model(
        world, cfg["model.n_samples"], alpha=cfg["model.alpha"],
        dropout_prob=cfg["model.dropout_prob"], rng_seed=cfg["model.seed"],
        training_max_objects=cfg["model.training_max_objects"],
    )
    path = os.path.join(out, "model.dcw1")
    save_count_model(path, model, extra=[_echo_section(cfg, "fit-model")])
    print(f"wrote {path} ({model.n_buckets()} buckets from {model.n_samples} samples)")
    return EXIT_OK


def cmd_learn_codebook(cfg: RunConfig) -> int:
    out = _out_dir(cfg)
    world = world_from_config(cfg)
    if not isinstance(world, SceneWorld):
        raise ValidationError("learn-codebook needs world.kind = scene (renderable)")
    rng = np.random.default_rng(cfg["codebook.seed"])
    cell_px = cfg["codebook.cell_px"]
    images = [
        render_tokens_to_image(world, grid, cell_px)
        for grid in world.prior_sample(rng, cfg["codebook.n_images"])
    ]
    cb = learn_codebook_from_images(
        images,
        n_entries=cfg["codebook.n_entries"],
        iters=cfg["codebook.iters"],
        rng_seed=cfg["codebook.seed"],
        patch_h=cfg["codebook.patch"],
        patch_w=cfg["codebook.patch"],
    )
    path = os.path.join(out, "codebook.dcw1")
    save_codebook(path, cb, extra=[_echo_section(cfg, "learn-codebook")])
    print(
        f"wrote {path} ({cb.entries.shape[0]} entries, "
        f"final objective {cb.objective_history[-1]:.6g})"
    )
    return EXIT_OK


def cmd_sample(cfg: RunConfig) -> int:
    out = _out_dir(cfg)
    world = world_from_config(cfg)
    conds = list(cfg.conditions())
    weights = list(cfg.weights())
    if conds:
        # surface impossible condition sets up front, before any run
        try:
            world.enumerate_posterior(conds)
        except EmptyIntersection:
            keys = ", ".join(str(c.key()) for c in conds)
            raise EmptyIntersection(
                f"no state satisfies the condition set: {keys}"
            ) from None
    model, _ = _resolve_model(cfg, world, out)
    sched = schedule_from_config(cfg)

    codebook = None
    if cfg["sample.render"]:
        if not isinstance(world, SceneWorld):
            raise ValidationError("sample.render needs world.kind = scene")
        cb_path = os.path.join(out, "codebook.dcw1")
        if not os.path.exists(cb_path):
            raise ValidationError(
                f"sample.render needs {cb_path}; run learn-codebook first"
            )
        codebook = load_codebook(cb_path)

    n_runs = cfg["sample.n_runs"]
    grids, aborts = sample_arm(
        model, world.length, conds, weights, sched,
        np.random.default_rng(cfg["schedule.seed"]), n_runs,
    )
    if aborts:
        # no samples.txt and no sample_*.ppm unless every run gave a grid
        raise AllMassZero(f"{aborts} of {n_runs} runs aborted with no mass left on any token")
    lines = [f"# command = sample"] + [f"# {ln}" for ln in config_lines(cfg)]
    for i, tokens in enumerate(grids):
        sat = world.check_conditions(tokens, conds) if conds else np.array([], bool)
        lines.append(
            f"run={i} tokens={','.join(str(int(t)) for t in tokens)}"
            f" satisfied={','.join('1' if b else '0' for b in sat)}"
        )
        if codebook is not None:
            img = render_tokens_to_image(world, tokens, cfg["codebook.cell_px"])
            recon = decode(encode(img, codebook), codebook)
            write_ppm(os.path.join(out, f"sample_{i:03d}.ppm"), recon)
    path = os.path.join(out, "samples.txt")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"wrote {path} ({n_runs} runs)")
    return EXIT_OK


def _eval_error(cfg: RunConfig, world, model, sched) -> tuple[list[dict], str]:
    n_comp = cfg["eval.n_components"]
    if n_comp:
        # a set size the pool or the world cannot hold fails before any k samples
        _satisfiable_sets(world, predicate_pool(world), n_comp)
    arms = [(n, False, f"composed-{n}") for n in range(1, n_comp + 1)]
    arms.append((n_comp, True, f"joint-{n_comp}") if n_comp else (0, False, "unconditional"))
    reports = [
        run_error_eval(
            model, world, n, cfg["eval.n_samples"], sched=sched,
            rng_seed=cfg["schedule.seed"], joint_prompt=joint, label=label,
        )
        for n, joint, label in arms
    ]
    return [r.to_record() for r in reports], format_table(reports)


def cmd_eval(cfg: RunConfig) -> int:
    out = _out_dir(cfg)
    suite = cfg["eval.suite"]
    if suite == "acceptance":
        from .acceptance import run_acceptance

        results = run_acceptance()
        records = [_header_record(cfg, "eval")] + [r.to_record() for r in results]
        _write_reports(os.path.join(out, "reports.jsonl"), records)
        for r in results:
            print(r.line())
        n_fail = sum(not r.passed for r in results)
        print(f"{len(results) - n_fail}/{len(results)} criteria passed")
        return EXIT_SUITE if n_fail else EXIT_OK

    world = world_from_config(cfg)
    sched = schedule_from_config(cfg)
    budget = cfg["model.training_max_objects"]
    if suite == "ood":
        if cfg["model.kind"] == "exact" or budget is None:
            raise ValidationError(
                "ood suite needs model.kind = count and a model.training_max_objects budget"
            )
        if cfg["eval.n_components"] <= budget:
            raise ValidationError(
                f"ood suite needs eval.n_components ({cfg['eval.n_components']}) > "
                f"model.training_max_objects ({budget})"
            )
    cond = _suite_condition(cfg, suite) if suite in ("negation", "fidelity") else None
    model, model_seed = _resolve_model(cfg, world, out)
    records = [_header_record(cfg, "eval", model_seed)]
    if suite == "error":
        rows, table = _eval_error(cfg, world, model, sched)
        records.extend(rows)
        print(table)
    elif suite == "ood":
        result = run_ood_eval(
            model, world, budget, cfg["eval.n_components"],
            n_runs=cfg["eval.n_samples"], sched=sched, rng_seed=cfg["schedule.seed"],
        )
        records.append(result.to_record())
        # the drawn set as a config line, for a sample run on the same set
        drawn = [ConditionSpec(key[0], key[1:]) for key in result.condition_keys]
        print(f"conditions.specs = {' '.join(format_condition(c) for c in drawn)}")
        print(
            f"composed rate {result.composed_rate:.3f} "
            f"(2sig {result.composed_two_sigma:.3f}, "
            f"{result.composed_distinct} distinct, {result.composed_distinct_in_support} "
            f"satisfying in the support, off-support {result.composed_off_support:.2f}, "
            f"{result.composed_aborts} aborts) vs "
            f"baseline {result.baseline_rate:.3f} (2sig {result.baseline_two_sigma:.3f}, "
            f"off-support {result.baseline_off_support:.2f}, {result.baseline_aborts} aborts)"
        )
    elif suite == "negation":
        result = run_negation_eval(
            model, world, cond, cfg["eval.n_samples"], weights=cfg["eval.weight_sweep"],
            sched=sched, rng_seed=cfg["schedule.seed"],
        )
        records.append(result.to_record())
        for w, rate, aborts in zip(result.weights, result.rates, result.aborts):
            print(f"w={w:+.1f}  satisfaction {rate:.4f}  aborts {aborts}")
        print(f"unconditional exact {result.p0_exact:.4f}")
    elif suite == "fidelity":
        tv = fidelity_tv(
            world, cond, cfg["eval.n_samples"], sched=sched,
            rng_seed=cfg["schedule.seed"], model=model,
        )
        records.append(
            {
                "type": "fidelity",
                "condition_key": None if cond is None else list(cond.key()),
                "n_samples": cfg["eval.n_samples"],
                "tv": tv,
            }
        )
        print(f"joint tv to enumerated law: {tv:.4f}")
    _write_reports(os.path.join(out, "reports.jsonl"), records)
    print(f"wrote {os.path.join(out, 'reports.jsonl')}")
    return EXIT_OK


def cmd_bench(cfg: RunConfig) -> int:
    out = _out_dir(cfg)
    world = world_from_config(cfg)
    model, model_seed = _resolve_model(cfg, world, out)
    sched = schedule_from_config(cfg)
    rows = run_bench(
        model,
        world,
        tokens_per_step_grid=cfg["bench.tokens_per_step_grid"],
        n_conditions_grid=cfg["bench.n_conditions_grid"],
        n_runs=cfg["bench.n_runs"],
        sched=sched,
        rng_seed=cfg["schedule.seed"],
    )
    records = [_header_record(cfg, "bench", model_seed)] + [r.to_record() for r in rows]
    _write_reports(os.path.join(out, "bench.jsonl"), records)
    print(f"{'s':>4}{'n_cond':>8}{'steps':>7}{'evals':>7}{'aborts':>8}{'ms/run':>10}")
    for r in rows:
        print(
            f"{r.tokens_per_step:>4}{r.n_conditions:>8}{r.steps:>7}"
            f"{r.evaluations:>7}{r.aborts:>8}{r.wall_per_run * 1e3:>10.2f}"
        )
    print(f"wrote {os.path.join(out, 'bench.jsonl')}")
    return EXIT_OK


# argument handling -----------------------------------------------------------

_COMMANDS = {
    "build-world": cmd_build_world,
    "fit-model": cmd_fit_model,
    "learn-codebook": cmd_learn_codebook,
    "sample": cmd_sample,
    "eval": cmd_eval,
    "bench": cmd_bench,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maskcompose",
        description="compose conditional token-grid generators and verify them",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="path to a key=value config file")
        p.add_argument("--seed", type=int, help="override every run seed")
        p.add_argument("--out", help="override the run directory")
        if name == "eval":
            p.add_argument(
                "--suite",
                choices=("error", "ood", "negation", "fidelity", "acceptance"),
                help="override eval.suite",
            )
    return parser


def resolve_config(args: argparse.Namespace) -> RunConfig:
    cfg = load_config(args.config) if args.config else RunConfig()
    if args.seed is not None:
        # one flag reseeds the run end to end; world tables stay put
        cfg.override("schedule.seed", args.seed)
        cfg.override("model.seed", args.seed)
        cfg.override("codebook.seed", args.seed)
    if args.out is not None:
        cfg.override("paths.out", args.out)
    if getattr(args, "suite", None) is not None:
        cfg.override("eval.suite", args.suite)
    return cfg


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = resolve_config(args)
        return _COMMANDS[args.command](cfg)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except _SAMPLING_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SAMPLING
    except (MaskComposeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
