"""The benchmark's traced run wraps the program at the names it calls
its layers by (`benchmarks/spans.py`): each of those names exists, is
wrapped by `instrument` and is put back by `restore`."""

import importlib
from pathlib import Path

from ypqwave import ads, cli, propagator, radial, shooting, spectrum

# (owner, attribute) of every wrapper `spans.instrument` installs
TRACED = [(cli, "run"), (cli, "cache_get_or_solve"),
          (propagator, "build_modes"), (radial, "solve_radial"),
          (spectrum, "solve_radial"), (cli, "solve_radial"),
          (shooting, "shooting_oracle"), (shooting, "shooting_matcher"),
          (ads.ModeTable, "block"), (propagator, "project_cauchy"),
          (propagator, "synthesize"), (ads, "synthesize"),
          (propagator.KGPropagator, "__init__"),
          (propagator.KGPropagator, "evolve"),
          (propagator.KGPropagator, "evolve_inhomogeneous")]


def test_instrument_wraps_and_restore_unwraps(monkeypatch, capsys):
    monkeypatch.syspath_prepend(
        str(Path(__file__).resolve().parents[1] / "benchmarks"))
    spans = importlib.import_module("spans")
    originals = [vars(owner)[attr] for owner, attr in TRACED]
    tracer = spans.Tracer()
    try:
        spans.instrument(tracer)
        wrapped = [vars(owner)[attr] for owner, attr in TRACED]
        assert all(new is not old for new, old in zip(wrapped, originals))
        assert cli.run(["geometry", "--p", "2", "--q", "3"]) == 0
    finally:
        tracer.restore()
    capsys.readouterr()
    assert [s["name"] for s in tracer.spans] == ["cli.run"]
    assert all(vars(owner)[attr] is old
               for (owner, attr), old in zip(TRACED, originals))
