"""Reference outputs recorded on the default seed, and the comparison rule.

Integers and strings (family, m_opt, kept) must match exactly; floats
(coefficients, log likelihoods, scores) within ``RTOL`` relative plus
``ATOL`` absolute.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

DEFAULT_SEED = 1
RTOL = 1e-6
ATOL = 1e-9
PATH = Path(__file__).resolve().parent / "reference.json"


def compare(actual, expected, where=""):
    """Differences between an output summary and its reference, as messages."""
    if isinstance(expected, dict):
        if not isinstance(actual, dict) or set(actual) != set(expected):
            return [f"{where}: keys {sorted(actual) if isinstance(actual, dict) else actual!r} "
                    f"!= reference {sorted(expected)}"]
        return [p for key in expected for p in compare(actual[key], expected[key], f"{where}.{key}")]
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            return [f"{where}: {actual!r} != reference {expected!r}"]
        return [p for i, (a, e) in enumerate(zip(actual, expected)) for p in compare(a, e, f"{where}[{i}]")]
    if isinstance(expected, float):
        ok = isinstance(actual, (int, float)) and (
            (math.isnan(actual) and math.isnan(expected))
            or abs(actual - expected) <= ATOL + RTOL * abs(expected)
        )
        return [] if ok else [f"{where}: {actual!r} != reference {expected!r}"]
    return [] if actual == expected and type(actual) is type(expected) else [
        f"{where}: {actual!r} != reference {expected!r}"
    ]


def load():
    with open(PATH, encoding="utf-8") as fh:
        return json.load(fh)


def for_workload(reference, workload):
    """The reference list of one workload, or a problem if its parameters changed."""
    entry = reference.get(workload.name)
    if entry is None:
        return None, f"no reference outputs for {workload.name}"
    if entry["params"] != workload.params():
        return None, f"reference was recorded with {entry['params']}, workload has {workload.params()}"
    return entry["ops"], None
