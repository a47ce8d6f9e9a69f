"""Every entry point that takes copula data or covariates checks them alike.

A wrong number of dimensions, columns or rows raises ``InterfaceError("NAME
must be an (ROWS, COLS) array, got shape S")``, with ``N`` or ``p`` where any
count will do, the first non-finite entry raises ``InterfaceError("NAME
row i, column j is not finite (v)")``, and a ragged array or one with a cell
that is not a number raises ``InterfaceError("NAME must be a rectangular
array of numbers")``.
"""

import re

import numpy as np
import pytest

from vineboost import boosting as B
from vineboost import families as F
from vineboost import scoring as S
from vineboost.boosting import BoostControl
from vineboost.errors import ConfigurationError, InterfaceError
from vineboost.families import FIT_FAMILIES, CopulaFamily
from vineboost.vine import ConditionalVineModel, dvine_structure, fit_vine, select_structure

N = 40
M = 10  # ensemble members of ecc_reorder
CONTROL = BoostControl(m_stop=5, cv_folds=2)
GAUSS = CopulaFamily.GAUSSIAN
MODEL = ConditionalVineModel.from_coefficients(dvine_structure(range(3)), [GAUSS] * 3, [[0.3, 0.1, 0.0]] * 3)


def inputs():
    rng = np.random.default_rng(0)
    return {
        "pairs": rng.random((N, 2)),
        "U": rng.random((N, 3)),
        "W": rng.random((N, 3)),
        "Z": np.column_stack([np.ones(N), rng.standard_normal((N, 2))]),
        "latent": rng.standard_normal((N, 3)),
        "samples": rng.random((M, 3)),
        "raw": rng.random((M, 3)),
    }


# caller: (the call on the named arrays, {array: (rows, columns) as its shape
# message prints them}); a number of rows is another array's, so a shorter
# array is misaligned.  prepare takes the columns of its pairs, so only their
# values are checked through it.
CALLERS = {
    "fit_pair": (lambda a: B.fit_pair(a["pairs"], a["Z"], FIT_FAMILIES, CONTROL),
                 {"pairs": ("N", 2), "Z": (N, "p")}),
    "fit_family": (lambda a: B.fit_family(a["pairs"], a["Z"], GAUSS, CONTROL),
                   {"pairs": ("N", 2), "Z": (N, "p")}),
    "boost": (lambda a: B.boost(a["pairs"], a["Z"], GAUSS, CONTROL), {"pairs": ("N", 2), "Z": (N, "p")}),
    "stop_cv": (lambda a: B.stop_cv(a["pairs"], a["Z"], GAUSS, CONTROL), {"pairs": ("N", 2), "Z": (N, "p")}),
    "fit_vine": (lambda a: fit_vine(a["U"], a["Z"], dvine_structure(range(3)), FIT_FAMILIES, CONTROL),
                 {"U": ("N", 3), "Z": (N, "p")}),
    **{method: (lambda a, method=method: getattr(MODEL, method)(a["U"], a["Z"]), {"Z": ("N", 3), "U": (N, 3)})
       for method in ("pseudo_observations", "log_density", "rosenblatt")},
    "inverse_rosenblatt": (lambda a: MODEL.inverse_rosenblatt(a["W"], a["Z"]), {"Z": ("N", 3), "W": (N, 3)}),
    "sample": (lambda a: MODEL.sample(a["Z"], 0), {"Z": ("N", 3)}),
    "predict_tau": (lambda a: B.predict_tau(MODEL.models[0][0], a["Z"]), {"Z": ("N", 3)}),
    "select_structure": (lambda a: select_structure(a["U"]), {"U": ("N", "p")}),
    "prepare": (lambda a: F.prepare(GAUSS, a["pairs"][:, 0], a["pairs"][:, 1]), {"pairs": None}),
    "gca_fit": (lambda a: S.gca_fit(a["latent"]), {"latent": ("N", "p")}),
    "ecc_reorder": (lambda a: S.ecc_reorder(a["samples"], a["raw"], 0), {"samples": ("N", "p"), "raw": (M, 3)}),
}


def _at_3_1(value):
    def edit(x):
        x = x.copy()
        x[3, 1] = value
        return x
    return edit


def _text_at_3_1(x):
    x = x.astype(object)
    x[3, 1] = "a"
    return x


EDITS = {
    "1-d": lambda x: x[:, 0],
    "wide": lambda x: np.column_stack([x, x[:, 0]]),
    "misaligned": lambda x: x[:-1],
    "nan": _at_3_1(np.nan),
    "inf": _at_3_1(np.inf),
    "ragged": lambda x: [list(row) for row in x[:-1]] + [list(x[-1, :-1])],
    "text": _text_at_3_1,
}


def _applies(edit, shape):
    """Whether ``edit`` breaks an array whose shape message prints ``shape``."""
    if shape is None:
        return edit in ("nan", "inf", "text")
    return {"wide": isinstance(shape[1], int), "misaligned": isinstance(shape[0], int)}.get(edit, True)


CASES = [pytest.param(caller, array, edit, id=f"{caller}-{array}-{edit}")
         for caller, (_, arrays) in CALLERS.items() for array, shape in arrays.items()
         for edit in EDITS if _applies(edit, shape)]


@pytest.mark.parametrize("caller, array, edit", CASES)
def test_malformed_array_is_an_interface_error_naming_it(caller, array, edit):
    call, arrays = CALLERS[caller]
    data = inputs()
    data[array] = EDITS[edit](data[array])
    if edit in ("nan", "inf"):
        message = f"{array} row 3, column 1 is not finite ({edit})"
    elif edit in ("ragged", "text"):
        message = f"{array} must be a rectangular array of numbers"
    else:
        rows, cols = arrays[array]
        message = f"{array} must be an ({rows}, {cols}) array, got shape {data[array].shape}"
    with pytest.raises(InterfaceError, match=f"^{re.escape(message)}$"):
        call(data)


def test_prepare_needs_columns_of_one_shape():
    with pytest.raises(InterfaceError, match=r"^u1 and u2 must have one shape, got \(5,\) and \(4,\)$"):
        F.prepare(GAUSS, np.full(5, 0.3), np.full(4, 0.3))


def test_structure_selection_needs_two_columns():
    with pytest.raises(InterfaceError, match=r"^U must be an \(N, d\) array with d >= 2, got shape \(40, 1\)$"):
        select_structure(inputs()["U"][:, :1])


def test_constant_column_is_named_before_any_tau(monkeypatch):
    import scipy.stats

    taus = []
    monkeypatch.setattr(scipy.stats, "kendalltau", lambda *a: taus.append(a))
    U = inputs()["U"]
    U[:, 2] = 0.5
    with pytest.raises(InterfaceError, match=r"^U column 2 is constant: its Kendall's tau is undefined$"):
        select_structure(U)
    assert taus == []


def test_gca_needs_two_rows():
    with pytest.raises(InterfaceError, match=r"^latent must be an \(N, d\) array with N >= 2, got shape \(1, 3\)$"):
        S.gca_fit(inputs()["latent"][:1])


@pytest.mark.parametrize("families", ["gaussian", GAUSS], ids=["tag", "family"])
def test_one_family_is_not_a_list_of_families(families):
    a = inputs()
    message = r"^families must be a list of families, got 'gaussian'$"
    with pytest.raises(ConfigurationError, match=message):
        B.fit_pair(a["pairs"], a["Z"], families)
    with pytest.raises(ConfigurationError, match=message):
        fit_vine(a["U"], a["Z"], dvine_structure(range(3)), families)
