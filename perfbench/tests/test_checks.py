"""The output checks must catch a corrupted result."""

import dataclasses
import json

import numpy as np
import pytest

import reference
import workloads
from vineboost.families import FIT_FAMILIES


class SmallPair(workloads.PairWide):
    N, P = 300, 21


class SmallVineCli(workloads.VineCli):
    N, M_STOP = 200, 30


class SmallForecast(workloads.Forecast):
    CASES, MEMBERS = 40, 10


@pytest.fixture(scope="module")
def pair():
    workload = SmallPair(3, None)
    return workload, workload.run(1)


def test_pair_fit_passes_its_checks(pair):
    workload, fit = pair
    assert workload.check(1, fit) == []


def test_swapped_family_is_caught(pair):
    workload, fit = pair
    other = next(f for f in FIT_FAMILIES if f != fit.family)
    bad = dataclasses.replace(fit, family=other)
    assert any("loglik" in p for p in workload.check(1, bad))
    assert reference.compare(workload.summary(1, bad), workload.summary(1, fit))


def test_perturbed_beta_is_caught(pair):
    workload, fit = pair
    bad = dataclasses.replace(fit, beta=fit.beta * (1.0 + 1e-4))
    assert any("loglik" in p for p in workload.check(1, bad))
    assert reference.compare(workload.summary(1, bad), workload.summary(1, fit))


def test_reference_compare_rules():
    ref = {"family": "gaussian", "m_opt": 7, "kept": [0, 2], "beta": [0.5, -0.25]}
    assert reference.compare(dict(ref), ref) == []
    assert reference.compare({**ref, "beta": [0.5 * (1 + 1e-8), -0.25]}, ref) == []
    assert reference.compare({**ref, "beta": [0.5 * (1 + 1e-5), -0.25]}, ref)
    assert reference.compare({**ref, "m_opt": 8}, ref)
    assert reference.compare({**ref, "kept": [0]}, ref)
    assert reference.compare({**ref, "family": "claytonI"}, ref)


def test_vine_cli_checks_catch_an_edited_model(tmp_path):
    workload = SmallVineCli(2, tmp_path)
    code = workload.run(0)
    assert workload.check(0, code) == []
    assert workload.check(0, 2) == ["op 0: exit code 2"]
    path = workload.inputs[0][2]["model"]
    with open(path, encoding="utf-8") as fh:
        model = json.load(fh)
    edge = model["trees"][1][0]
    edge["family"] = next(f.value for f in FIT_FAMILIES if f.value != edge["family"])
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model, fh)
    assert workload.check(0, code)


def test_forecast_checks_catch_corruption():
    workload = SmallForecast(4, None)
    out = workload.run(0)
    assert workload.check(0, out) == []
    bad_pit = {**out, "pit": out["pit"] + 1e-5}
    assert any("round trip" in p for p in workload.check(0, bad_pit))
    text, back = out["json"]
    bad_json = {**out, "json": (text.replace('"gumbelI"', '"gumbelII"', 1), back)}
    assert any("JSON" in p for p in workload.check(0, bad_json))
    es, vs, hist, ri = out["scores"]["vine"]
    bad_scores = {**out, "scores": {**out["scores"], "vine": (es * np.nan, vs, hist, ri)}}
    assert any("non-finite" in p for p in workload.check(0, bad_scores))


def test_reference_file_matches_the_workloads():
    ref = reference.load()
    assert ref["seed"] == reference.DEFAULT_SEED
    for cls in workloads.WORKLOADS.values():
        ops, problem = reference.for_workload(ref, cls.__new__(cls))
        assert problem is None and len(ops) == cls.cycle
