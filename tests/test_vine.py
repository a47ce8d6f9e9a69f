import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst
from scipy.special import ndtr
from scipy.stats import kendalltau, kstest, qmc, rankdata

import vineboost
from vineboost import boosting as B
from vineboost.boosting import BoostControl, FittedPairCopula, fit_family, fit_pair, predict_tau
from vineboost.errors import ConfigurationError, EvaluationError, FitError, InterfaceError, StructureError
from vineboost.families import CopulaFamily, FIT_FAMILIES, U_EPS, log_density, sample_pair
from vineboost.simulation import TRUE_BETA, benchmark_rvine_structure, gen_covariates
from vineboost.vine import (
    ConditionalVineModel,
    VineEdge,
    VineStructure,
    dvine_structure,
    fit_vine,
    select_structure,
    truncate,
    validate_structure,
)

from oracles import LabelledPrepare


def constant_tau_model(structure, families, taus, n_covariates=1):
    betas = [np.r_[np.arctanh(t), np.zeros(n_covariates - 1)] for t in taus]
    return ConditionalVineModel.from_coefficients(structure, families, betas)


class TestStructure:
    def test_edge_normalizes(self):
        e = VineEdge(3, 1, (4, 2))
        assert (e.a, e.b, e.cond) == (1, 3, (2, 4))
        with pytest.raises(StructureError):
            VineEdge(1, 1)
        with pytest.raises(StructureError):
            VineEdge(1, 2, (2,))

    def test_benchmark_rvine_is_valid(self):
        assert validate_structure(benchmark_rvine_structure()) == []

    def test_dvine_is_valid(self):
        assert validate_structure(dvine_structure(range(5))) == []
        trees = dvine_structure(range(5)).trees
        assert [e.label() for e in trees[0]] == ["0,1", "1,2", "2,3", "3,4"]
        assert [e.label() for e in trees[3]] == ["0,4;1,2,3"]

    def test_proximity_violation_reported(self):
        bad = VineStructure.from_edges(
            4,
            [
                [VineEdge(0, 1), VineEdge(1, 2), VineEdge(2, 3)],
                # (0,3;1) would need tree-1 edges (0,1) and (1,3): the latter
                # does not exist, so no two parents share a node
                [VineEdge(0, 3, (1,)), VineEdge(1, 3, (2,))],
                [VineEdge(0, 2, (1, 3))],
            ],
        )
        report = validate_structure(bad)
        assert any("proximity" in v for v in report)

    def test_tree_size_violation(self):
        bad = VineStructure.from_edges(3, [[VineEdge(0, 1)], [VineEdge(0, 2, (1,))]])
        assert any("tree 1 has" in v for v in validate_structure(bad))

    def test_never_raises(self):
        broken = VineStructure.from_edges(3, [[VineEdge(0, 1), VineEdge(5, 6)], [VineEdge(0, 2, (1,))]])
        assert validate_structure(broken)  # reports, does not throw

    def test_structure_dict_roundtrip(self):
        st = benchmark_rvine_structure()
        assert VineStructure.from_dict(st.to_dict()) == st


class TestFitVine:
    def test_d2_reduces_to_fit_pair(self):
        rng = np.random.default_rng(0)
        n = 600
        Z = np.column_stack([np.ones(n), rng.standard_normal((n, 3))])
        tau = np.tanh(0.2 + 0.6 * Z[:, 1])
        pairs = sample_pair(CopulaFamily.CLAYTON_II, tau, n, seed=1)
        control = BoostControl(m_stop=120)
        model = fit_vine(pairs, Z, dvine_structure(range(2)), [CopulaFamily.CLAYTON_II], control)
        direct = fit_pair(pairs, Z, [CopulaFamily.CLAYTON_II], control)
        np.testing.assert_array_equal(model.models[0][0].beta, direct.beta)
        assert model.models[0][0].m_opt == direct.m_opt

    def test_invalid_structure_rejected(self):
        bad = VineStructure.from_edges(3, [[VineEdge(0, 1)], [VineEdge(0, 2, (1,))]])
        with pytest.raises(StructureError):
            fit_vine(np.random.rand(50, 3), np.ones((50, 1)), bad, FIT_FAMILIES)

    def test_edge_failure_keeps_exception_and_diagnostics(self):
        # an all-zero covariate leaves nothing selectable, so every family fails
        rng = np.random.default_rng(0)
        with pytest.raises(FitError, match=r"^edge 0,1: all candidate families failed$") as info:
            fit_vine(rng.random((200, 3)), np.zeros((200, 1)), dvine_structure(range(3)), FIT_FAMILIES,
                     BoostControl(m_stop=10))
        assert set(info.value.diagnostics) == set(FIT_FAMILIES)

    @pytest.mark.parametrize("kwargs, message", [
        ({"edge_families": "short"}, "edge_families tree 2 has 2 families for 3 edges"),
        ({"edge_families": "few trees"}, "edge_families has 3 trees, 4 are fitted"),
        ({"edge_families": "unknown"},
         "unknown copula family 'frank'; known: gaussian, claytonI, claytonII, gumbelI, gumbelII, independence"),
        ({"families": None}, "families is required without edge_families"),
        ({"families": []}, "families must be non-empty"),
        ({"deselect": False}, "deselect=False requires edge_families"),
        ({"criterion": "bic"}, "unknown selection criterion 'bic'"),
    ])
    def test_bad_families_rejected_before_any_edge_is_fitted(self, monkeypatch, kwargs, message):
        structure = benchmark_rvine_structure()
        pinned = [[CopulaFamily.GAUSSIAN] * len(tree) for tree in structure.trees]
        edge_families = {"short": [pinned[0], pinned[1][:2], *pinned[2:]], "few trees": pinned[:3],
                         "unknown": [pinned[0], ["frank", *pinned[1][1:]], *pinned[2:]]}
        args = {"families": FIT_FAMILIES, **kwargs}
        if "edge_families" in args:
            args["edge_families"] = edge_families[args["edge_families"]]
        prepared = []
        monkeypatch.setattr(B, "prepare", lambda *a: prepared.append(a))
        rng = np.random.default_rng(8)
        with pytest.raises(ConfigurationError, match=f"^{message}$"):
            fit_vine(rng.random((100, 5)), np.ones((100, 1)), structure, control=BoostControl(m_stop=10), **args)
        assert prepared == []

    def test_unknown_family_is_one_error_everywhere(self):
        rng = np.random.default_rng(9)
        U, Z = rng.random((100, 3)), np.ones((100, 1))
        message = ("unknown copula family 'frank'; known: gaussian, claytonI, claytonII, gumbelI, gumbelII, "
                   "independence")
        for fit in (lambda: fit_pair(U[:, :2], Z, [CopulaFamily.GAUSSIAN, "frank"]),
                    lambda: fit_family(U[:, :2], Z, "frank", BoostControl()),
                    lambda: fit_vine(U, Z, dvine_structure(range(3)), ["gaussian", "frank"])):
            with pytest.raises(ConfigurationError, match=f"^{message}$"):
                fit()

    def test_covariate_names_must_match_Z_before_any_edge_is_fitted(self, monkeypatch):
        prepared = []
        monkeypatch.setattr(B, "prepare", lambda *a: prepared.append(a))
        rng = np.random.default_rng(3)
        Z = np.column_stack([np.ones(100), rng.standard_normal((100, 2))])
        with pytest.raises(InterfaceError, match="^1 covariate names for the 3 columns of Z$"):
            fit_vine(rng.random((100, 3)), Z, dvine_structure(range(3)), FIT_FAMILIES, covariate_names=("a",))
        assert prepared == []

    def test_zero_rows_is_an_interface_error(self):
        with pytest.raises(InterfaceError, match="^edge 0,1: pairs must hold at least one row$"):
            fit_vine(np.zeros((0, 3)), np.ones((0, 2)), dvine_structure(range(3)), FIT_FAMILIES)

    def test_beta_length_is_checked_on_construction_and_loading(self):
        structure = dvine_structure(range(3))
        model = constant_tau_model(structure, [CopulaFamily.GAUSSIAN] * 3, [0.3, 0.2, 0.1], n_covariates=3)
        message = r"^model edge 0,1: key 'beta': 3 coefficients for 1 covariate names$"
        with pytest.raises(InterfaceError, match=message):
            ConditionalVineModel(structure, model.models, ("a",))
        doc = model.to_dict()
        doc["covariate_names"] = ["a"]
        with pytest.raises(InterfaceError, match=message):
            ConditionalVineModel.from_dict(doc)

    def test_edge_families_only_cover_the_fitted_trees(self):
        rng = np.random.default_rng(9)
        structure = benchmark_rvine_structure()
        pinned = [[CopulaFamily.GAUSSIAN] * len(tree) for tree in structure.trees[:2]]
        model = fit_vine(rng.random((100, 5)), np.ones((100, 1)), structure, None, BoostControl(m_stop=10),
                         truncation_level=2, edge_families=pinned, deselect=False)
        assert [f.family for f in model.models[1]] == [CopulaFamily.GAUSSIAN] * 3

    def test_truncation_skips_fitting(self):
        rng = np.random.default_rng(2)
        n = 400
        Z = np.ones((n, 1))
        truth = constant_tau_model(
            benchmark_rvine_structure(), [CopulaFamily.GAUSSIAN] * 10, [0.5] * 10
        )
        U = truth.sample(np.ones((n, 1)), seed=3)
        model = fit_vine(
            U, Z, benchmark_rvine_structure(), [CopulaFamily.GAUSSIAN],
            BoostControl(m_stop=40), truncation_level=2,
        )
        for fits in model.models[2:]:
            assert all(f.family == CopulaFamily.INDEPENDENCE for f in fits)
            assert all(np.all(f.beta == 0.0) for f in fits)

    def test_edge_order_within_tree_is_immaterial(self):
        rng = np.random.default_rng(4)
        n = 500
        Z = np.column_stack([np.ones(n), rng.standard_normal(n)])
        truth = constant_tau_model(dvine_structure(range(3)), [CopulaFamily.GAUSSIAN] * 3, [0.5, 0.4, 0.2], 2)
        U = truth.sample(Z, seed=5)
        st_a = VineStructure.from_edges(3, [[VineEdge(0, 1), VineEdge(1, 2)], [VineEdge(0, 2, (1,))]])
        st_b = VineStructure.from_edges(3, [[VineEdge(1, 2), VineEdge(0, 1)], [VineEdge(0, 2, (1,))]])
        control = BoostControl(m_stop=60)
        ma = fit_vine(U, Z, st_a, [CopulaFamily.GAUSSIAN], control)
        mb = fit_vine(U, Z, st_b, [CopulaFamily.GAUSSIAN], control)
        for fa, fb in zip(ma.models, mb.models):
            for a, b in zip(fa, fb):
                np.testing.assert_array_equal(a.beta, b.beta)

    def test_pseudo_observations_contract(self):
        # tree-1 pseudo-observations are the raw columns; tree-2 ones are
        # near-uniform when the lower tree is correctly specified
        rng = np.random.default_rng(6)
        n = 2000
        Z = np.ones((n, 1))
        st = dvine_structure(range(3))
        truth = constant_tau_model(st, [CopulaFamily.GUMBEL_I] * 3, [0.6, 0.5, 0.2])
        U = truth.sample(Z, seed=7)
        model = fit_vine(U, Z, st, [CopulaFamily.GUMBEL_I], BoostControl(m_stop=150))
        pseudo = model.pseudo_observations(U, Z)
        e01 = st.trees[0][0]
        np.testing.assert_allclose(pseudo[e01][0], np.clip(U[:, 0], 1e-10, 1 - 1e-10))
        e02_1 = st.trees[1][0]
        for col in pseudo[e02_1]:
            assert np.all((col > 0) & (col < 1))
            assert kstest(col, "uniform").statistic < 0.05


def tree_batched_data(kind):
    """Copula data, covariates and structure of the tree-batched parity gate:
    the benchmark 5-d vine at the benchmark's size or on 525 covariates, a
    design of 2.1 MB, or a 6-d D-vine."""
    if kind == "rvine5":
        structure, n, p, seed = benchmark_rvine_structure(), 500, 11, 41
    elif kind == "rvine5-wide":
        structure, n, p, seed = benchmark_rvine_structure(), 500, 525, 41
    else:
        structure, n, p, seed = dvine_structure(range(6)), 400, 8, 42
    n_edges = sum(len(tree) for tree in structure.trees)
    families = [FIT_FAMILIES[i % len(FIT_FAMILIES)] for i in range(n_edges)]
    beta = np.concatenate([TRUE_BETA, np.zeros(p - len(TRUE_BETA))])
    truth = ConditionalVineModel.from_coefficients(structure, families, [beta] * n_edges)
    Z = gen_covariates(n, p, 0.5, seed=seed)
    return truth.sample(Z, seed=seed + 1), Z, structure


def per_edge_fit_vine(U, Z, structure, families, control=None, truncation_level=None,
                      edge_families=None, deselect=True, criterion="aic"):
    """``fit_vine`` one edge at a time: ``fit_pair`` (``fit_family`` without
    deselection) on each edge's pseudo-observations, tree by tree; the
    reference of the tree-batched fit."""
    levels = truncation_level or len(structure.trees)
    names = tuple(f"z{j}" for j in range(Z.shape[1]))
    models = [[FittedPairCopula.independence(Z.shape[1]) for _ in tree] for tree in structure.trees]
    for t, tree in enumerate(structure.trees[:levels]):
        # trees t and above are still independence; tree t's data needs only those below
        pseudo = ConditionalVineModel(structure, models, names).pseudo_observations(U, Z)
        for i, e in enumerate(tree):
            pairs = np.column_stack(pseudo[e])
            if edge_families is None:
                models[t][i] = fit_pair(pairs, Z, families, control, criterion=criterion)
            elif deselect:
                models[t][i] = fit_pair(pairs, Z, [edge_families[t][i]], control, criterion=criterion)
            else:
                models[t][i] = fit_family(pairs, Z, edge_families[t][i], control, refit=False)
    return ConditionalVineModel(structure, models, names, truncation_level)


def pinned_families(structure):
    # neighbouring edges share a family, so a tree's one stack holds kernels
    # of several families, some over more than one edge
    return [[FIT_FAMILIES[(t + i // 2) % len(FIT_FAMILIES)] for i in range(len(tree))]
            for t, tree in enumerate(structure.trees)]


TREE_BATCHED_SETTINGS = {
    "aic": {},
    "pinned": {"families": None, "edge_families": pinned_families, "deselect": False},
    "pinned-deselect": {"families": None, "edge_families": pinned_families},
    "truncated": {"truncation_level": 2},
    "predictive_risk": {"criterion": "predictive_risk"},
    "cv": {"control": BoostControl(m_stop=60, stopping="cv", cv_folds=5, seed=3)},
}


def failing_edges(monkeypatch, U, edges, failing):
    """Make the ``failing`` families' kernels raise at iteration 17 on the
    rows that hold the data of the tree-1 ``edges``: a row's label is the
    position in ``edges`` of the edge whose data it holds, or None."""
    bad = [(np.clip(U[:, e.a], U_EPS, 1 - U_EPS), np.clip(U[:, e.b], U_EPS, 1 - U_EPS)) for e in edges]

    def row_ids(u1, u2):
        return [next((i for i, (b1, b2) in enumerate(bad) if np.array_equal(a1, b1) and np.array_equal(a2, b2)),
                     None) for a1, a2 in zip(u1, u2)]

    def fails(label, k, gradient):
        family, edge = label
        if family in failing and edge is not None and k >= 17:
            return EvaluationError(f"{family.value} kernel failed at iteration 17")

    monkeypatch.setattr(B, "prepare", LabelledPrepare(vineboost.families.prepare, fails, row_ids))


class TestTreeBatched:
    """``fit_vine``, which boosts the edges of a tree together, against
    ``fit_pair``/``fit_family`` on one edge at a time."""

    @pytest.mark.parametrize("setting", list(TREE_BATCHED_SETTINGS))
    @pytest.mark.parametrize("kind", ["rvine5", "dvine6"])
    def test_model_matches_per_edge_fits(self, monkeypatch, kind, setting):
        U, Z, structure = tree_batched_data(kind)
        kwargs = {"families": FIT_FAMILIES, "control": BoostControl(m_stop=100),
                  **TREE_BATCHED_SETTINGS[setting]}
        if "edge_families" in kwargs:
            kwargs["edge_families"] = kwargs["edge_families"](structure)
        fit_edges, calls = B._fit_edges, []
        monkeypatch.setattr(B, "_fit_edges", lambda *args, **kw: calls.append(args) or fit_edges(*args, **kw))
        model = fit_vine(U, Z, structure, **kwargs)
        # one stack per fitted tree, whatever the candidates, and one more
        # for the refits of the "predictive_risk" winners
        trees = kwargs.get("truncation_level") or len(structure.trees)
        assert len(calls) == trees * (2 if kwargs.get("criterion") == "predictive_risk" else 1)
        assert model.to_json() == per_edge_fit_vine(U, Z, structure, **kwargs).to_json()

    def test_failing_edge_leaves_the_others_as_alone(self, monkeypatch):
        U, Z, structure = tree_batched_data("rvine5")
        control = BoostControl(m_stop=100)
        bad = structure.trees[0][1]
        failing_edges(monkeypatch, U, [bad], {CopulaFamily.GUMBEL_I})
        model = fit_vine(U, Z, structure, FIT_FAMILIES, control)
        assert model.to_json() == per_edge_fit_vine(U, Z, structure, FIT_FAMILIES, control).to_json()
        for e, fit in zip(structure.trees[0], model.models[0]):
            assert ("gumbelI" in fit.selection_scores) == (e != bad)
        # every family failing on two edges: the first in tree order raises
        first, second = structure.trees[0][1], structure.trees[0][3]
        failing_edges(monkeypatch, U, [second, first], set(FIT_FAMILIES))
        with pytest.raises(FitError, match=f"^edge {first.label()}: all candidate families failed$") as info:
            fit_vine(U, Z, structure, FIT_FAMILIES, control)
        assert info.value.diagnostics == {
            f: repr(EvaluationError(f"{f.value} kernel failed at iteration 17")) for f in FIT_FAMILIES
        }

    def test_wide_design_matches_per_edge_fits(self):
        # a design of at least 2 MiB, the size from which a stack of
        # several families once scanned with a float64 GEMM
        U, Z, structure = tree_batched_data("rvine5-wide")
        assert Z.nbytes >= 2 << 20
        control = BoostControl(m_stop=100)
        model = fit_vine(U, Z, structure, FIT_FAMILIES, control, truncation_level=2)
        reference = per_edge_fit_vine(U, Z, structure, FIT_FAMILIES, control, truncation_level=2)
        assert model.to_json() == reference.to_json()


class TestDensity:
    def test_independence_is_zero(self):
        st = dvine_structure(range(4))
        model = ConditionalVineModel.from_coefficients(
            st, [CopulaFamily.INDEPENDENCE] * 6, [np.zeros(3)] * 6
        )
        rng = np.random.default_rng(8)
        U = rng.random((50, 4))
        Z = np.column_stack([np.ones(50), rng.standard_normal((50, 2))])
        assert np.all(model.log_density(U, Z) == 0.0)

    def test_matches_independent_gaussian_brute_force(self):
        from scipy.stats import multivariate_normal, norm

        taus = [0.5, -0.4, 0.3]
        st = dvine_structure(range(3))
        model = constant_tau_model(st, [CopulaFamily.GAUSSIAN] * 3, taus, 2)
        rng = np.random.default_rng(9)
        U = rng.uniform(0.05, 0.95, (40, 3))
        Z = np.column_stack([np.ones(40), np.zeros(40)])

        def dens(u, v, th):
            x, y = norm.ppf(u), norm.ppf(v)
            mv = multivariate_normal(cov=np.array([[1.0, th], [th, 1.0]]))
            return mv.pdf(np.column_stack([x, y])) / (norm.pdf(x) * norm.pdf(y))

        def hfun(u, v, th):
            return norm.cdf((norm.ppf(u) - th * norm.ppf(v)) / np.sqrt(1 - th * th))

        th = [np.sin(np.pi * t / 2) for t in taus]
        brute = np.log(
            dens(U[:, 0], U[:, 1], th[0])
            * dens(U[:, 1], U[:, 2], th[1])
            * dens(hfun(U[:, 0], U[:, 1], th[0]), hfun(U[:, 2], U[:, 1], th[1]), th[2])
        )
        np.testing.assert_allclose(model.log_density(U, Z), brute, atol=1e-8)

    def test_monte_carlo_normalization(self):
        st = dvine_structure(range(3))
        fams = [CopulaFamily.CLAYTON_II, CopulaFamily.GAUSSIAN, CopulaFamily.GUMBEL_I]
        betas = [np.array([0.3, 0.4]), np.array([-0.2, 0.5]), np.array([0.1, -0.3])]
        model = ConditionalVineModel.from_coefficients(st, fams, betas)
        pts = qmc.Sobol(d=3, scramble=True, seed=10).random_base2(18)
        Z = np.tile([1.0, 0.7], (len(pts), 1))
        integral = np.exp(model.log_density(pts, Z)).mean()
        assert integral == pytest.approx(1.0, abs=0.02)

    def test_truncated_density_sums_lower_trees_only(self):
        st = dvine_structure(range(3))
        model = constant_tau_model(st, [CopulaFamily.GAUSSIAN] * 3, [0.5, 0.4, 0.3], 2)
        level1 = truncate(model, 1)
        rng = np.random.default_rng(11)
        U = rng.uniform(0.05, 0.95, (30, 3))
        Z = np.column_stack([np.ones(30), np.zeros(30)])
        from vineboost.families import log_density as pair_logpdf

        manual = np.zeros(30)
        for e, fit in zip(st.trees[0], model.models[0]):
            manual += pair_logpdf(fit.family, U[:, e.a], U[:, e.b], predict_tau(fit, Z))
        np.testing.assert_allclose(level1.log_density(U, Z), manual, atol=1e-12)


class TestSampling:
    def test_independence_margins_uniform(self):
        st = dvine_structure(range(3))
        model = ConditionalVineModel.from_coefficients(
            st, [CopulaFamily.INDEPENDENCE] * 3, [np.zeros(1)] * 3
        )
        U = model.sample(np.ones((100_000, 1)), seed=12)
        for j in range(3):
            assert kstest(U[:, j], "uniform").statistic < 0.01

    def test_two_dim_agrees_with_sample_pair(self):
        tau = 0.55
        model = constant_tau_model(dvine_structure(range(2)), [CopulaFamily.GUMBEL_I], [tau])
        U = model.sample(np.ones((100_000, 1)), seed=13)
        P = sample_pair(CopulaFamily.GUMBEL_I, tau, 100_000, seed=14)
        t_vine = kendalltau(U[:, 0], U[:, 1]).statistic
        t_pair = kendalltau(P[:, 0], P[:, 1]).statistic
        assert abs(t_vine - t_pair) < 0.01

    def test_inverse_rosenblatt_roundtrip(self):
        rng = np.random.default_rng(15)
        st = benchmark_rvine_structure()
        fams = [CopulaFamily(v) for v in rng.choice([f.value for f in FIT_FAMILIES], 10)]
        taus = rng.uniform(-0.6, 0.6, 10)
        model = constant_tau_model(st, fams, taus, 2)
        Z = np.column_stack([np.ones(100), rng.standard_normal(100)])
        W = rng.random((100, 5))
        U = model.inverse_rosenblatt(W, Z)
        np.testing.assert_allclose(model.rosenblatt(U, Z), W, atol=1e-6)

    def test_sample_deterministic(self):
        model = constant_tau_model(dvine_structure(range(3)), [CopulaFamily.CLAYTON_I] * 3, [0.4, 0.3, 0.2])
        Z = np.ones((200, 1))
        np.testing.assert_array_equal(model.sample(Z, seed=16), model.sample(Z, seed=16))

    def test_fit_recovers_constant_tau_in_lower_trees(self):
        st = dvine_structure(range(3))
        taus = [0.55, 0.4, -0.25]
        truth = constant_tau_model(st, [CopulaFamily.GAUSSIAN] * 3, taus)
        N = 100_000
        Z = np.ones((N, 1))
        U = truth.sample(Z, seed=17)
        model = fit_vine(U, Z, st, [CopulaFamily.GAUSSIAN], BoostControl(m_stop=150))
        for tree_fits, tree in zip(model.models[:2], st.trees[:2]):
            for e, fit in zip(tree, tree_fits):
                tau_hat = float(np.tanh(fit.beta[0]))
                tau_true = float(np.tanh(truth.pair_model(e).beta[0]))
                assert abs(tau_hat - tau_true) < 0.02


class TestSelectStructure:
    def test_d2_forced(self):
        rng = np.random.default_rng(18)
        U = rng.random((200, 2))
        st = select_structure(U)
        assert st.trees[0][0] == VineEdge(0, 1)

    def test_d3_exhaustive_comparison(self):
        # chain with strong 0-1 and 1-2 dependence, weak 0-2: of the three
        # possible spanning trees, {0-1, 1-2} maximizes the weight sum
        rng = np.random.default_rng(19)
        n = 3000
        x0 = rng.standard_normal(n)
        x1 = 0.95 * x0 + np.sqrt(1 - 0.95**2) * rng.standard_normal(n)
        x2 = 0.9 * x1 + np.sqrt(1 - 0.9**2) * rng.standard_normal(n)
        U = np.column_stack([rankdata(c) / (n + 1) for c in (x0, x1, x2)])
        taus = {
            (a, b): abs(kendalltau(U[:, a], U[:, b]).statistic)
            for a, b in [(0, 1), (1, 2), (0, 2)]
        }
        trees = {
            frozenset([(0, 1), (1, 2)]): taus[(0, 1)] + taus[(1, 2)],
            frozenset([(0, 1), (0, 2)]): taus[(0, 1)] + taus[(0, 2)],
            frozenset([(0, 2), (1, 2)]): taus[(0, 2)] + taus[(1, 2)],
        }
        best = max(trees, key=trees.get)
        st = select_structure(U)
        got = frozenset((e.a, e.b) for e in st.trees[0])
        assert got == best == frozenset([(0, 1), (1, 2)])

    def test_output_always_valid(self):
        rng = np.random.default_rng(20)
        for d in (3, 4, 6):
            U = rng.random((300, d))
            assert validate_structure(select_structure(U)) == []

    def test_needs_enough_rows(self):
        with pytest.raises(ConfigurationError):
            select_structure(np.random.default_rng(0).random((10, 3)))

    def test_import_defers_scipy_stats(self):
        # only select_structure needs scipy.stats; importing it costs ~0.8 s
        src = str(Path(vineboost.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        code = "import sys, vineboost, vineboost.cli; print('scipy.stats' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                             check=True)
        assert out.stdout.strip() == "False"


class TestTruncateAndSerialize:
    def test_full_level_is_noop(self):
        st = dvine_structure(range(3))
        model = constant_tau_model(st, [CopulaFamily.GAUSSIAN] * 3, [0.5, 0.3, 0.1], 2)
        rng = np.random.default_rng(21)
        U = rng.uniform(0.1, 0.9, (20, 3))
        Z = np.column_stack([np.ones(20), np.zeros(20)])
        np.testing.assert_allclose(truncate(model, 2).log_density(U, Z), model.log_density(U, Z))

    def test_level_bounds(self):
        model = constant_tau_model(dvine_structure(range(3)), [CopulaFamily.GAUSSIAN] * 3, [0.5, 0.3, 0.1])
        with pytest.raises(ConfigurationError):
            truncate(model, 0)
        with pytest.raises(ConfigurationError):
            truncate(model, 3)
        with pytest.raises(ConfigurationError):
            ConditionalVineModel(model.structure, model.models, model.covariate_names, truncation_level=-1)

    def test_json_roundtrip_bit_exact(self):
        rng = np.random.default_rng(22)
        st = benchmark_rvine_structure()
        fams = [CopulaFamily(v) for v in rng.choice([f.value for f in FIT_FAMILIES], 10)]
        betas = [rng.standard_normal(3) * 0.3 for _ in range(10)]
        model = ConditionalVineModel.from_coefficients(st, fams, betas)
        text = model.to_json()
        reloaded = ConditionalVineModel.from_json(text)
        assert reloaded.to_json() == text
        U = rng.uniform(0.05, 0.95, (10, 5))
        Z = np.column_stack([np.ones(10), rng.standard_normal((10, 2))])
        np.testing.assert_array_equal(model.log_density(U, Z), reloaded.log_density(U, Z))

    def test_schema_version_checked(self):
        model = constant_tau_model(dvine_structure(range(2)), [CopulaFamily.GAUSSIAN], [0.2])
        obj = model.to_dict()
        obj["schema_version"] = 99
        with pytest.raises(InterfaceError):
            ConditionalVineModel.from_dict(obj)

    def test_truncation_changes_little_when_high_trees_are_weak(self):
        # held-out mean log density barely moves when trees 3-4 carry tau ~ 0
        st = benchmark_rvine_structure()
        taus = [0.5, 0.45, 0.4, 0.35, 0.2, 0.15, 0.25, 0.02, -0.015, 0.01]
        model = constant_tau_model(st, [CopulaFamily.GAUSSIAN] * 10, taus, 2)
        rng = np.random.default_rng(23)
        Z = np.column_stack([np.ones(4000), rng.standard_normal(4000)])
        U = model.sample(Z, seed=24)
        full = model.log_density(U, Z).mean()
        level2 = truncate(model, 2).log_density(U, Z).mean()
        assert full - level2 < 0.01  # truncation costs almost nothing
        level1 = truncate(model, 1).log_density(U, Z).mean()
        assert full - level1 > 0.02  # dropping tree 2 is visibly worse


def clayton_top_model():
    """A 3-d D-vine whose tree-2 edge is a Clayton I copula."""
    return ConditionalVineModel.from_coefficients(
        dvine_structure(range(3)), [CopulaFamily.GAUSSIAN, CopulaFamily.GAUSSIAN, CopulaFamily.CLAYTON_I],
        [[0.4, 0.2], [0.3, -0.1], [0.6, 0.3]])


def model_data(n=200, seed=31):
    rng = np.random.default_rng(seed)
    return rng.uniform(0.05, 0.95, (n, 3)), np.column_stack([np.ones(n), rng.standard_normal(n)])


# The exact model document of golden_model(): any change to the text of
# model files shows here.
GOLDEN_JSON = """\
{
  "covariate_names": [
    "one",
    "x"
  ],
  "d": 3,
  "schema_version": 1,
  "trees": [
    [
      {
        "a": 0,
        "aic": 0.0,
        "b": 1,
        "beta": [
          0.25,
          -0.5
        ],
        "conditioning": [],
        "family": "gaussian",
        "kept": [
          0,
          1
        ],
        "loglik": 0.0,
        "m_opt": 0
      },
      {
        "a": 0,
        "aic": 0.0,
        "b": 2,
        "beta": [
          0.0,
          0.125
        ],
        "conditioning": [],
        "family": "claytonII",
        "kept": [
          1
        ],
        "loglik": 0.0,
        "m_opt": 0
      }
    ],
    [
      {
        "a": 1,
        "aic": 0.0,
        "b": 2,
        "beta": [
          -0.75,
          0.0
        ],
        "conditioning": [
          0
        ],
        "family": "gumbelI",
        "kept": [
          0
        ],
        "loglik": 0.0,
        "m_opt": 0
      }
    ]
  ],
  "truncation_level": null
}"""


def golden_model():
    return ConditionalVineModel.from_coefficients(
        dvine_structure([2, 0, 1]), [CopulaFamily.GAUSSIAN, CopulaFamily.CLAYTON_II, CopulaFamily.GUMBEL_I],
        [[0.25, -0.5], [0.0, 0.125], [-0.75, 0.0]], ("one", "x"))


class TestModelConstruction:
    """The constructor alone decides which edges are independence, the
    structure writes the edge records, and every family is checked."""

    @pytest.mark.parametrize("source", ["dict", "file", "constructor"])
    def test_level_below_an_edge_loads_as_the_truncated_model(self, tmp_path, source):
        full = clayton_top_model()
        doc = full.to_dict()
        doc["truncation_level"] = 1
        if source == "dict":
            model = ConditionalVineModel.from_dict(doc)
        elif source == "file":
            path = tmp_path / "model.json"
            path.write_text(json.dumps(doc), encoding="utf-8")
            model = ConditionalVineModel.from_json(str(path))
        else:
            model = ConditionalVineModel(full.structure, full.models, full.covariate_names, truncation_level=1)
        truncated = truncate(full, 1)
        assert model.to_json() == truncated.to_json()
        assert [f.family for f in model.models[1]] == [CopulaFamily.INDEPENDENCE]
        U, Z = model_data()
        np.testing.assert_array_equal(model.sample(Z, 7), truncated.sample(Z, 7))
        np.testing.assert_array_equal(model.rosenblatt(U, Z), truncated.rosenblatt(U, Z))
        np.testing.assert_array_equal(model.log_density(U, Z), truncated.log_density(U, Z))
        assert not np.array_equal(full.sample(Z, 7), truncated.sample(Z, 7))

    def test_constructor_needs_fits_up_to_the_level_only(self):
        full = clayton_top_model()
        names = full.covariate_names
        model = ConditionalVineModel(full.structure, full.models[:1], names, truncation_level=1)
        assert model.to_json() == truncate(full, 1).to_json()
        for models, level in ((full.models[:1], None), ((), 1), (full.models + full.models[1:], None)):
            with pytest.raises(InterfaceError, match="^models must align with the structure's trees$"):
                ConditionalVineModel(full.structure, models, names, truncation_level=level)
        wide = FittedPairCopula.from_coefficients(CopulaFamily.GAUSSIAN, [0.1, 0.2, 0.3])
        for t in (0, 1):
            models = [list(fits) for fits in full.models]
            models[t][0] = wide
            with pytest.raises(InterfaceError, match=r"^model edge \S+: key 'beta': 3 coefficients for 2 covariate"):
                ConditionalVineModel(full.structure, models, names, truncation_level=1)

    def test_from_coefficients_takes_tags(self):
        structure, betas = dvine_structure(range(3)), [[0.4, 0.2], [0.3, -0.1], [0.6, 0.3]]
        model = ConditionalVineModel.from_coefficients(structure, ["gaussian", "gaussian", "claytonI"], betas)
        assert [type(f.family) for fits in model.models for f in fits] == [CopulaFamily] * 3
        text = model.to_json()
        assert text == clayton_top_model().to_json()
        assert ConditionalVineModel.from_json(text).to_json() == text
        assert type(FittedPairCopula.from_coefficients("gumbelII", [0.1]).family) is CopulaFamily

    def test_from_coefficients_checks_tags_and_counts(self):
        structure, betas = dvine_structure(range(3)), [[0.4, 0.2], [0.3, -0.1], [0.6, 0.3]]
        with pytest.raises(ConfigurationError, match="^unknown copula family 'frank'"):
            ConditionalVineModel.from_coefficients(structure, ["gaussian", "frank", "claytonI"], betas)
        with pytest.raises(ConfigurationError, match="^unknown copula family 'frank'"):
            FittedPairCopula.from_coefficients("frank", [0.1])
        for families, n_betas in ((["gaussian"] * 2, 3), (["gaussian"] * 3, 2), (["gaussian"] * 4, 4)):
            message = f"^{len(families)} families and {n_betas} coefficient vectors for the 3 edges of the structure$"
            with pytest.raises(InterfaceError, match=message):
                ConditionalVineModel.from_coefficients(structure, families, (betas * 2)[:n_betas])

    def test_model_document_text_is_pinned(self):
        assert golden_model().to_json() == GOLDEN_JSON


ALL_FAMILIES = (CopulaFamily.INDEPENDENCE,) + tuple(FIT_FAMILIES)
random_vines = given(d=hst.integers(3, 8), seed=hst.integers(0, 2**32 - 1))
PROPERTY = settings(max_examples=25, deadline=None, derandomize=True)


def random_vine_model(d, seed, n=64):
    """A model on a ``select_structure`` vine with random families and β.

    The structure is selected on Gaussian-copula data with random
    correlations; covariates are an intercept and two columns in [-1, 1].
    """
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((d, d))
    cov = A @ A.T + 0.5 * np.eye(d)
    corr = cov / np.sqrt(np.outer(np.diag(cov), np.diag(cov)))
    X = rng.standard_normal((200, d)) @ np.linalg.cholesky(corr).T
    structure = select_structure(ndtr(X))
    n_edges = d * (d - 1) // 2
    families = [ALL_FAMILIES[i] for i in rng.integers(len(ALL_FAMILIES), size=n_edges)]
    betas = [np.r_[rng.uniform(-1.0, 1.0), rng.uniform(-0.3, 0.3, 2)] for _ in range(n_edges)]
    model = ConditionalVineModel.from_coefficients(structure, families, betas)
    Z = np.column_stack([np.ones(n), rng.uniform(-1.0, 1.0, (n, 2))])
    return model, Z, rng



class TestRandomVineProperties:
    """The conditional-CDF recursion on random regular vines (d = 3-8)."""

    @random_vines
    @PROPERTY
    def test_structure_is_valid(self, d, seed):
        model, _, _ = random_vine_model(d, seed)
        assert validate_structure(model.structure) == []

    @random_vines
    @PROPERTY
    def test_rosenblatt_roundtrip(self, d, seed):
        model, Z, rng = random_vine_model(d, seed)
        W = rng.random((len(Z), d))
        U = model.inverse_rosenblatt(W, Z)
        np.testing.assert_allclose(model.rosenblatt(U, Z), W, rtol=0, atol=1e-6)

    @random_vines
    @PROPERTY
    def test_json_roundtrip_bit_exact(self, d, seed):
        model, Z, rng = random_vine_model(d, seed)
        text = model.to_json()
        reloaded = ConditionalVineModel.from_json(text)
        assert reloaded.to_json() == text
        U = rng.random((len(Z), d))
        np.testing.assert_array_equal(reloaded.log_density(U, Z), model.log_density(U, Z))

    @random_vines
    @PROPERTY
    def test_log_density_is_sum_of_edge_densities(self, d, seed):
        model, Z, rng = random_vine_model(d, seed)
        level = int(rng.integers(1, d))
        U = rng.random((len(Z), d))
        for m in (model, truncate(model, level)):
            pseudo = m.pseudo_observations(U, Z)
            assert len(pseudo) == sum(len(tree) for tree in m.structure.trees[: m.truncation_level])
            expected = np.zeros(len(Z))
            for e, (ua, ub) in pseudo.items():
                fit = m.pair_model(e)
                expected += log_density(fit.family, ua, ub, predict_tau(fit, Z))
            np.testing.assert_allclose(m.log_density(U, Z), expected, rtol=1e-12)

    @random_vines
    @PROPERTY
    def test_rosenblatt_stays_inside_clamp(self, d, seed):
        model, Z, rng = random_vine_model(d, seed)
        # values on and beyond the clamp bounds as well as interior ones
        U = rng.choice([0.0, 1e-13, 1e-6, 0.5, 1.0 - 1e-6, 1.0 - 1e-13, 1.0], size=(len(Z), d))
        W = model.rosenblatt(U, Z)
        assert np.all((W >= U_EPS) & (W <= 1.0 - U_EPS))


class TestDataChecks:
    @pytest.mark.parametrize("method", ["pseudo_observations", "log_density", "rosenblatt",
                                        "inverse_rosenblatt"])
    @pytest.mark.parametrize("shape", ["narrow", "wide", "short-Z"])
    def test_mismatched_data_raises_interface_error(self, method, shape):
        model = constant_tau_model(benchmark_rvine_structure(), [CopulaFamily.GAUSSIAN] * 10, [0.3] * 10, 2)
        rng = np.random.default_rng(23)
        n = 6
        U = rng.random((n, {"narrow": 4, "wide": 6, "short-Z": 5}[shape]))
        Z = np.column_stack([np.ones(n), rng.standard_normal(n)])
        if shape == "short-Z":
            Z = Z[:-2]
        with pytest.raises(InterfaceError):
            getattr(model, method)(U, Z)

    @pytest.mark.parametrize("method, array", [
        *((method, array) for method in ("pseudo_observations", "log_density", "rosenblatt", "inverse_rosenblatt")
          for array in ("U", "Z")),
        ("sample", "Z"),
    ])
    def test_non_finite_data_is_an_interface_error_naming_its_cell(self, method, array):
        model = constant_tau_model(benchmark_rvine_structure(), [CopulaFamily.GAUSSIAN] * 10, [0.3] * 10, 2)
        rng = np.random.default_rng(24)
        U = rng.random((6, 5))
        Z = np.column_stack([np.ones(6), rng.standard_normal(6)])
        (U if array == "U" else Z)[4, 1] = np.nan
        name = "W" if method == "inverse_rosenblatt" and array == "U" else array
        args = (Z, 0) if method == "sample" else (U, Z)
        with pytest.raises(InterfaceError, match=rf"^{name} row 4, column 1 is not finite \(nan\)$"):
            getattr(model, method)(*args)

    @pytest.mark.parametrize("array", ["U", "Z"])
    def test_fit_vine_names_the_non_finite_input_before_any_edge_is_fitted(self, monkeypatch, array):
        prepared = []
        monkeypatch.setattr(B, "prepare", lambda *a: prepared.append(a))
        rng = np.random.default_rng(25)
        U = rng.random((100, 5))
        Z = np.column_stack([np.ones(100), rng.standard_normal((100, 2))])
        (U if array == "U" else Z)[7, 2] = np.inf
        with pytest.raises(InterfaceError, match=rf"^{array} row 7, column 2 is not finite \(inf\)$"):
            fit_vine(U, Z, benchmark_rvine_structure(), FIT_FAMILIES, BoostControl(m_stop=10))
        assert prepared == []
