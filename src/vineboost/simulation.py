"""Simulation studies for the boosted conditional copula estimators.

Covariates are drawn from a zero-mean multivariate normal with Toeplitz
correlation rho^|i-j| (generated exactly through the AR(1) recursion), the
dependence signal is a fixed sparse linear predictor on the first six
columns (intercept included), and repetitions are seeded independently by
spawning from a master seed so partial re-runs stay reproducible.  Two
scenario kinds are provided: a single conditional bivariate copula and a
five-dimensional conditional vine.  Each fit can run in "selected" mode
(family selection, deselection) or "specified" mode (true family, true
covariates, plain boosting).
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import boosting as bst
from .boosting import BoostControl
from .errors import ConfigurationError
from .families import FIT_FAMILIES, CopulaFamily, hinv, link_tau
from .vine import ConditionalVineModel, VineEdge, VineStructure, _family, fit_vine

__all__ = [
    "TRUE_BETA",
    "ScenarioConfig",
    "BicopScenarioReport",
    "VineScenarioReport",
    "gen_covariates",
    "true_eta",
    "mae_tau",
    "benchmark_rvine_structure",
    "run_bicop_scenario",
    "run_vine_scenario",
    "run_scenario",
]

#: Coefficients of the data-generating linear predictor (column 0 = intercept).
TRUE_BETA = np.array([0.1, -0.2, 0.3, 0.2, 0.5, -0.4])

#: Indices counted as informative for true/false-positive bookkeeping.
INFORMATIVE = frozenset(range(6))


@dataclass(frozen=True)
class ScenarioConfig:
    """Configuration of one simulation scenario.

    ``family`` fixes the data-generating family; ``family_draw`` draws one
    per repetition (bivariate) or per edge (vine) uniformly from the five
    candidates.
    """

    kind: str = "bicop"
    N: int = 1000
    p: int = 101
    rho: float = 0.2
    n_reps: int = 20
    family: str | None = "gaussian"
    family_draw: bool = False
    mode: str = "selected"
    control: BoostControl = field(default_factory=BoostControl)
    seed: int = 1

    def __post_init__(self):
        bst._require_type(self, ("N", "p", "n_reps", "seed"), (int, np.integer), "an integer")
        if not isinstance(self.family_draw, (bool, np.bool_)):
            raise ConfigurationError(f"family_draw must be true or false, got {self.family_draw!r}")
        if not isinstance(self.control, BoostControl):
            raise ConfigurationError(f"control must be an object of boosting settings, got {self.control!r}")
        if self.kind not in ("bicop", "vine"):
            raise ConfigurationError("kind must be 'bicop' or 'vine'")
        if not 0.0 < self.rho < 1.0:
            raise ConfigurationError("rho must lie in (0, 1)")
        if self.p < 6:
            raise ConfigurationError("p must be >= 6 (informative block plus intercept)")
        if self.n_reps < 1:
            raise ConfigurationError("n_reps must be >= 1")
        if self.seed < 0:
            raise ConfigurationError("seed must be >= 0")
        if self.mode not in ("selected", "specified"):
            raise ConfigurationError("mode must be 'selected' or 'specified'")
        if self.family is None and not self.family_draw:
            raise ConfigurationError("either fix a family or enable family_draw")
        if self.family is not None:
            _family(self.family)

    def to_dict(self):
        out = asdict(self)
        out["control"] = asdict(self.control)
        return out

    @classmethod
    def from_dict(cls, obj):
        obj = dict(obj)
        if "control" in obj and isinstance(obj["control"], dict):
            obj["control"] = BoostControl(**obj["control"])
        return cls(**obj)

    @classmethod
    def from_json(cls, path):
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


def gen_covariates(N, p, rho, seed):
    """N x p design: intercept column plus p-1 Toeplitz-correlated normals.

    The AR(1) recursion z_j = rho z_{j-1} + sqrt(1 - rho^2) eps_j realizes
    the rho^|i-j| covariance exactly.
    """
    rng = np.random.default_rng(seed)
    eps = rng.standard_normal((N, p - 1))
    z = np.empty_like(eps)
    z[:, 0] = eps[:, 0]
    c = np.sqrt(1.0 - rho * rho)
    for j in range(1, p - 1):
        z[:, j] = rho * z[:, j - 1] + c * eps[:, j]
    return np.column_stack([np.ones(N), z])


def true_eta(Z):
    """The data-generating linear predictor evaluated on covariate rows."""
    Z = np.asarray(Z, dtype=float)
    if Z.shape[1] < len(TRUE_BETA):
        raise ConfigurationError("Z must have at least 6 columns")
    return Z[:, : len(TRUE_BETA)] @ TRUE_BETA


def mae_tau(eta_true, eta_hat):
    """Mean absolute error on the Kendall's tau scale."""
    return float(np.mean(np.abs(np.tanh(eta_true) - np.tanh(eta_hat))))


def benchmark_rvine_structure():
    """The 5-dimensional regular vine used by the vine scenario."""
    return VineStructure.from_edges(
        5,
        [
            [VineEdge(0, 1), VineEdge(0, 2), VineEdge(0, 3), VineEdge(3, 4)],
            [VineEdge(1, 3, (0,)), VineEdge(2, 3, (0,)), VineEdge(0, 4, (3,))],
            [VineEdge(1, 2, (0, 3)), VineEdge(2, 4, (0, 3))],
            [VineEdge(1, 4, (0, 2, 3))],
        ],
    )


def _rep_seeds(master, n):
    return np.random.SeedSequence(master).spawn(n)


def _tp_fp(kept):
    kept = set(kept)
    return len(kept & INFORMATIVE), len(kept - INFORMATIVE)


def _draw_family(rng):
    return FIT_FAMILIES[int(rng.integers(len(FIT_FAMILIES)))]


def _count(v):
    # a count as an integer, or nan for a repetition that failed
    return "nan" if np.isnan(v) else int(v)


@dataclass
class BicopScenarioReport:
    """Per-repetition records of the bivariate scenario."""

    config: ScenarioConfig
    beta_hat: np.ndarray        # (n_reps, 6)
    kept_sizes: np.ndarray      # (n_reps,); counts are NaN where a repetition failed
    tp: np.ndarray
    fp: np.ndarray
    mae: np.ndarray
    m_opt: np.ndarray
    true_family: list
    selected_family: list
    failures: list

    def median_beta(self):
        """The median coefficients over the repetitions that did not fail."""
        return np.median(np.delete(self.beta_hat, [rep for rep, _ in self.failures], axis=0), axis=0)

    def exactly_informative_rate(self):
        """The share of the repetitions that ran which kept exactly the
        informative covariates (NaN when none ran)."""
        ran = ~np.isnan(self.tp)
        if not ran.any():
            return float("nan")
        return float(np.mean((self.tp[ran] == len(INFORMATIVE)) & (self.fp[ran] == 0)))

    def write_csv(self, out_dir):
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        with open(out_dir / "coefficients.csv", "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(["rep"] + [f"beta{j}" for j in range(6)])
            for r, row in enumerate(self.beta_hat):
                w.writerow([r] + [repr(float(v)) for v in row])
        with open(out_dir / "selection.csv", "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(["rep", "kept", "tp", "fp", "m_opt"])
            for r in range(len(self.kept_sizes)):
                w.writerow([r] + [_count(a[r]) for a in (self.kept_sizes, self.tp, self.fp, self.m_opt)])
        with open(out_dir / "families.csv", "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(["rep", "true_family", "selected_family"])
            for r in range(len(self.true_family)):
                w.writerow([r, self.true_family[r], self.selected_family[r]])
        with open(out_dir / "mae.csv", "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(["rep", "mae_tau"])
            for r, v in enumerate(self.mae):
                w.writerow([r, repr(float(v))])


def run_bicop_scenario(config):
    """Simulate, fit and score the conditional bivariate copula scenario."""
    if config.kind != "bicop":
        raise ConfigurationError("config.kind must be 'bicop'")
    n_reps = config.n_reps
    # a failed repetition keeps NaN estimates and counts
    beta_hat = np.full((n_reps, 6), np.nan)
    kept_sizes = np.full(n_reps, np.nan)
    tp = np.full(n_reps, np.nan)
    fp = np.full(n_reps, np.nan)
    mae = np.full(n_reps, np.nan)
    m_opt = np.full(n_reps, np.nan)
    true_family, selected_family, failures = [], [], []

    for rep, seed in enumerate(_rep_seeds(config.seed, n_reps)):
        rng = np.random.default_rng(seed)
        Z = gen_covariates(config.N, config.p, config.rho, rng)
        eta = true_eta(Z)
        family = CopulaFamily(config.family) if not config.family_draw else _draw_family(rng)
        true_family.append(family.value)
        w1 = rng.random(config.N)
        w2 = rng.random(config.N)
        pairs = np.column_stack([w1, hinv(family, "2|1", w2, w1, link_tau(eta))])
        try:
            if config.mode == "specified":
                fit = bst.fit_family(pairs, Z[:, :6], family, config.control, refit=False)
                beta_row = fit.beta
                eta_hat = Z[:, :6] @ fit.beta
            else:
                fit = bst.fit_pair(pairs, Z, FIT_FAMILIES, config.control)
                beta_row = fit.beta[:6]
                eta_hat = Z @ fit.beta
        except Exception as exc:  # per-rep failures are recorded, not fatal
            failures.append((rep, repr(exc)))
            selected_family.append("failed")
            continue
        beta_hat[rep] = beta_row
        kept_sizes[rep] = len(fit.kept)
        tp[rep], fp[rep] = _tp_fp(fit.kept)
        mae[rep] = mae_tau(eta, eta_hat)
        m_opt[rep] = fit.m_opt
        selected_family.append(fit.family.value)

    return BicopScenarioReport(
        config=config,
        beta_hat=beta_hat,
        kept_sizes=kept_sizes,
        tp=tp,
        fp=fp,
        mae=mae,
        m_opt=m_opt,
        true_family=true_family,
        selected_family=selected_family,
        failures=failures,
    )


@dataclass
class VineScenarioReport:
    """Per-repetition, per-edge records of the vine scenario."""

    config: ScenarioConfig
    structure: VineStructure
    # rows: one record per (rep, tree, edge)
    rep: np.ndarray
    tree: np.ndarray
    edge_label: list
    beta_hat: np.ndarray        # (rows, 6)
    mae: np.ndarray
    tp: np.ndarray
    fp: np.ndarray
    kept_sizes: np.ndarray
    true_family: list
    selected_family: list
    failures: list

    def median_mae_by_tree(self):
        levels = sorted(set(self.tree.tolist()))
        return {t: float(np.median(self.mae[self.tree == t])) for t in levels}

    def median_beta_by_tree(self):
        out = {}
        for t in sorted(set(self.tree.tolist())):
            out[t] = np.median(self.beta_hat[self.tree == t], axis=0)
        return out

    def coefficient_bias_by_tree(self):
        """Mean absolute deviation of the per-tree median coefficients."""
        return {
            t: float(np.mean(np.abs(med - TRUE_BETA)))
            for t, med in self.median_beta_by_tree().items()
        }

    def family_recovery_by_tree(self):
        sel = np.asarray(self.selected_family)
        tru = np.asarray(self.true_family)
        return {
            t: float(np.mean(sel[self.tree == t] == tru[self.tree == t]))
            for t in sorted(set(self.tree.tolist()))
        }

    def write_csv(self, out_dir):
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        with open(out_dir / "edges.csv", "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(
                ["rep", "tree", "edge", "true_family", "selected_family", "kept", "tp", "fp", "mae_tau"]
                + [f"beta{j}" for j in range(6)]
            )
            for i in range(len(self.rep)):
                w.writerow(
                    [
                        self.rep[i],
                        self.tree[i],
                        self.edge_label[i],
                        self.true_family[i],
                        self.selected_family[i],
                        self.kept_sizes[i],
                        self.tp[i],
                        self.fp[i],
                        repr(float(self.mae[i])),
                    ]
                    + [repr(float(v)) for v in self.beta_hat[i]]
                )


def run_vine_scenario(config):
    """Simulate and fit the 5-dimensional conditional vine scenario."""
    if config.kind != "vine":
        raise ConfigurationError("config.kind must be 'vine'")
    structure = benchmark_rvine_structure()
    edges = [e for tree in structure.trees for e in tree]
    n_edges = len(edges)
    tree_of = {e: t + 1 for t, tree in enumerate(structure.trees) for e in tree}

    rows = config.n_reps * n_edges
    rep_col = np.zeros(rows, dtype=int)
    tree_col = np.zeros(rows, dtype=int)
    edge_label = [""] * rows
    beta_hat = np.zeros((rows, 6))
    mae = np.zeros(rows)
    tp = np.zeros(rows, dtype=int)
    fp = np.zeros(rows, dtype=int)
    kept_sizes = np.zeros(rows, dtype=int)
    true_family = [""] * rows
    selected_family = [""] * rows
    failures = []

    row = 0
    for rep, seed in enumerate(_rep_seeds(config.seed, config.n_reps)):
        rng = np.random.default_rng(seed)
        Z = gen_covariates(config.N, config.p, config.rho, rng)
        eta = true_eta(Z)
        if config.family_draw:
            fams = [_draw_family(rng) for _ in range(n_edges)]
        else:
            fams = [CopulaFamily(config.family)] * n_edges
        width = Z.shape[1]
        betas = [np.concatenate([TRUE_BETA, np.zeros(width - 6)])] * n_edges
        truth = ConditionalVineModel.from_coefficients(structure, fams, betas)
        U = truth.sample(Z, seed=rng.integers(2**63))

        fam_by_edge = dict(zip(edges, fams))
        edge_families = [[fam_by_edge[e] for e in tree] for tree in structure.trees]
        try:
            if config.mode == "specified":
                fitted = fit_vine(
                    U, Z[:, :6], structure, None,
                    control=config.control, edge_families=edge_families, deselect=False,
                )
                Z_used = Z[:, :6]
            else:
                fitted = fit_vine(U, Z, structure, FIT_FAMILIES, control=config.control)
                Z_used = Z
        except Exception as exc:
            failures.append((rep, repr(exc)))
            continue

        for tree, fits in zip(fitted.structure.trees, fitted.models):
            for e, fit in zip(tree, fits):
                rep_col[row] = rep
                tree_col[row] = tree_of[e]
                edge_label[row] = e.label()
                beta_hat[row] = fit.beta[:6]
                mae[row] = mae_tau(eta, Z_used @ fit.beta)
                tp[row], fp[row] = _tp_fp(fit.kept)
                kept_sizes[row] = len(fit.kept)
                true_family[row] = fam_by_edge[e].value
                selected_family[row] = fit.family.value
                row += 1

    keep = slice(0, row)
    return VineScenarioReport(
        config=config,
        structure=structure,
        rep=rep_col[keep],
        tree=tree_col[keep],
        edge_label=edge_label[:row],
        beta_hat=beta_hat[keep],
        mae=mae[keep],
        tp=tp[keep],
        fp=fp[keep],
        kept_sizes=kept_sizes[keep],
        true_family=true_family[:row],
        selected_family=selected_family[:row],
        failures=failures,
    )


def run_scenario(config):
    """Dispatch on the configured scenario kind."""
    if config.kind == "bicop":
        return run_bicop_scenario(config)
    return run_vine_scenario(config)
