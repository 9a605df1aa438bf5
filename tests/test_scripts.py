"""Smoke tests of the demo scripts at tiny sizes: they run and print their rates."""

import importlib.util
from pathlib import Path

import pytest

from maskcompose import countmodel

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "name, argv, needles",
    [
        ("ood_demo", ["--n-train", "2000", "--eval-runs", "10", "--runs", "2"],
         ["composed rate", "joint-prompt baseline", "over 10 runs", "composed samples"]),
        ("weight_sweep", ["--n-samples", "50"],
         ["exact unconditional rate", "monotonicity:"]),
    ],
    ids=["ood_demo", "weight_sweep"],
)
def test_script_runs_and_prints_its_rates(capsys, name, argv, needles):
    assert load_script(name).main(argv) == 0
    out = capsys.readouterr().out
    for needle in needles:
        assert needle in out
    if name == "weight_sweep":
        # between the header and the last line, one row per default weight:
        # weight, rate, 2sig, aborts
        rows = [ln.split() for ln in out.splitlines()[2:-1]]
        assert [float(r[0]) for r in rows] == [-3.0, -2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 3.0]
        assert all(r[3] == "0" for r in rows)


def test_ood_demo_fits_one_model(monkeypatch, capsys):
    # the rates and the printed grids come from one fitted model. The script
    # calls fit_count_model through its own global; every fit, wherever it is
    # called from, builds one CountModel, so count those too
    module = load_script("ood_demo")
    fits, built = [], []
    fit, build = module.fit_count_model, countmodel.CountModel

    def counted_fit(*args, **kwargs):
        fits.append(fit(*args, **kwargs))
        return fits[-1]

    def counted_build(**kwargs):
        built.append(build(**kwargs))
        return built[-1]

    monkeypatch.setattr(module, "fit_count_model", counted_fit)
    monkeypatch.setattr(countmodel, "CountModel", counted_build)
    assert module.main(["--n-train", "2000", "--eval-runs", "10", "--runs", "2"]) == 0
    assert len(fits) == len(built) == 1
    assert "composed samples" in capsys.readouterr().out
