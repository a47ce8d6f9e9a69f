"""BENCHMARK.json agrees with what run.py prints."""

import json
import re
from pathlib import Path

import layers
import run
from workloads import WORKLOADS

DOC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_workloads_match():
    names = [w["name"] for w in DOC["workloads"]]
    assert names == list(run.WORKLOAD_NAMES) == list(WORKLOADS)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in DOC["workloads"])


def test_metric_names_and_units_match():
    assert [(m["name"], m["unit"]) for m in DOC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in DOC["per_layer"]] == layers.specs()
    every = [m["name"] for m in DOC["end_to_end"] + DOC["per_layer"]]
    assert len(every) == len(set(every))
    assert all(NAME.match(n) for n in every)
    assert all(UNIT.match(m["unit"]) for m in DOC["end_to_end"] + DOC["per_layer"])
    bounds = {m["name"]: m["bound"] for m in DOC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    # the benchmark contract gives set-up time the largest bound
    assert bounds["setup_s"] == max(bounds.values())
