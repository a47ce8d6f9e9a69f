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
import numbers
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import boosting as bst
from .boosting import BoostControl
from .errors import ConfigurationError
from .families import FIT_FAMILIES, _family, link_tau, sample_pair
from .vine import ConditionalVineModel, VineEdge, VineStructure, _from_file, fit_vine

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
        bst._require_type(self, ("rho",), numbers.Real, "a real number")
        if not isinstance(self.family_draw, (bool, np.bool_)):
            raise ConfigurationError(f"family_draw must be true or false, got {self.family_draw!r}")
        if not isinstance(self.control, BoostControl):
            raise ConfigurationError(f"control must be an object of boosting settings, got {self.control!r}")
        if self.kind not in ("bicop", "vine"):
            raise ConfigurationError("kind must be 'bicop' or 'vine'")
        if not 0.0 < self.rho < 1.0:
            raise ConfigurationError("rho must lie in (0, 1)")
        if self.N < 1:
            raise ConfigurationError("N must be >= 1")
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
        if self.control.stopping == "cv":
            bst._check_fold_rows(self.N, self.control.cv_folds)

    def to_dict(self):
        out = asdict(self)
        out["control"] = asdict(self.control)
        return out

    @classmethod
    def from_dict(cls, obj):
        """The configuration of a :meth:`to_dict` document.  A document that
        is not an object, or an unknown key in it or in its ``control``
        object, raises :class:`ConfigurationError`."""
        obj = dict(_known_keys(obj, cls, "scenario"))
        if isinstance(obj.get("control"), dict):
            obj["control"] = BoostControl(**_known_keys(obj["control"], BoostControl, "scenario control"))
        return cls(**obj)

    @classmethod
    def from_json(cls, path):
        """The configuration in the JSON file ``path``; errors name the file."""
        return _from_file(path, cls.from_dict)


def _known_keys(obj, cls, where):
    """``obj``, checked to be a dict whose keys are fields of ``cls``."""
    if not isinstance(obj, dict):
        raise ConfigurationError(f"{where}: expected an object, got {obj!r}")
    unknown = sorted(set(obj) - {f.name for f in fields(cls)})
    if unknown:
        raise ConfigurationError(f"{where}: unknown key {unknown[0]!r}")
    return obj


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


def _fmt(x):
    """A float as every output table writes it: ``repr``, which round-trips."""
    return repr(float(x))


def _write_table(path, header, rows):
    """Write ``header`` and ``rows`` to the CSV file ``path``; lines end in ``\\r\\n``."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def _attempt(fit, *args, **kwargs):
    """``(fit(*args, **kwargs), None)``, or ``(None, repr(exc))`` of the
    exception that stopped it; only its message outlives the failure."""
    try:
        return fit(*args, **kwargs), None
    except Exception as exc:  # per-rep failures are recorded, not fatal
        return None, repr(exc)


def _run_reps(config, rep_fn):
    """The report rows of every repetition, each led by its index, and
    ``(rep, error)`` of each whose fit failed.  ``rep_fn(config, seed)``
    returns one repetition's rows and its ``_attempt`` error."""
    rows, failures = [], []
    for rep, seed in enumerate(_rep_seeds(config.seed, config.n_reps)):
        rep_rows, error = rep_fn(config, seed)
        rows += [(rep, *row) for row in rep_rows]
        if error is not None:
            failures.append((rep, error))
    return rows, failures


def _bicop_rep(config, seed):
    """One repetition of the bivariate scenario, drawn from ``seed``: its one
    report row (beta[:6], kept, tp, fp, mae, m_opt, true and selected
    family) and its fit's error.  A failed fit keeps NaN estimates and
    counts, its true family and ``"failed"``."""
    rng = np.random.default_rng(seed)
    Z = gen_covariates(config.N, config.p, config.rho, rng)
    eta = true_eta(Z)
    family = _family(config.family) if not config.family_draw else _draw_family(rng)
    pairs = sample_pair(family, link_tau(eta), config.N, rng)
    if config.mode == "specified":
        Z = Z[:, :6]
        fit, error = _attempt(bst.fit_family, pairs, Z, family, config.control, refit=False)
    else:
        fit, error = _attempt(bst.fit_pair, pairs, Z, FIT_FAMILIES, config.control)
    if error is not None:
        return [(np.full(6, np.nan), np.nan, np.nan, np.nan, np.nan, np.nan, family.value, "failed")], error
    return [(fit.beta[:6], len(fit.kept), *_tp_fp(fit.kept), mae_tau(eta, Z @ fit.beta), fit.m_opt,
             family.value, fit.family.value)], None


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
        """The median coefficients over the repetitions that ran (NaN when none did)."""
        ran = np.delete(self.beta_hat, [rep for rep, _ in self.failures], axis=0)
        return np.median(ran, axis=0) if len(ran) else np.full(6, np.nan)

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
        reps = range(len(self.beta_hat))
        _write_table(out_dir / "coefficients.csv", ["rep"] + [f"beta{j}" for j in range(6)],
                     ([r] + [_fmt(v) for v in row] for r, row in zip(reps, self.beta_hat)))
        counts = (self.kept_sizes, self.tp, self.fp, self.m_opt)
        _write_table(out_dir / "selection.csv", ["rep", "kept", "tp", "fp", "m_opt"],
                     ([r] + [_count(a[r]) for a in counts] for r in reps))
        _write_table(out_dir / "families.csv", ["rep", "true_family", "selected_family"],
                     zip(reps, self.true_family, self.selected_family))
        _write_table(out_dir / "mae.csv", ["rep", "mae_tau"], ((r, _fmt(v)) for r, v in zip(reps, self.mae)))


def run_bicop_scenario(config):
    """Simulate, fit and score the conditional bivariate copula scenario."""
    if config.kind != "bicop":
        raise ConfigurationError("config.kind must be 'bicop'")
    rows, failures = _run_reps(config, _bicop_rep)
    _, beta_hat, kept_sizes, tp, fp, mae, m_opt, true_family, selected_family = zip(*rows)
    return BicopScenarioReport(
        config=config,
        beta_hat=np.array(beta_hat, dtype=float),
        kept_sizes=np.array(kept_sizes, dtype=float),
        tp=np.array(tp, dtype=float),
        fp=np.array(fp, dtype=float),
        mae=np.array(mae, dtype=float),
        m_opt=np.array(m_opt, dtype=float),
        true_family=list(true_family),
        selected_family=list(selected_family),
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
        header = ["rep", "tree", "edge", "true_family", "selected_family", "kept", "tp", "fp", "mae_tau"]
        rows = (
            [self.rep[i], self.tree[i], self.edge_label[i], self.true_family[i], self.selected_family[i],
             self.kept_sizes[i], self.tp[i], self.fp[i], _fmt(self.mae[i])]
            + [_fmt(v) for v in self.beta_hat[i]]
            for i in range(len(self.rep))
        )
        _write_table(out_dir / "edges.csv", header + [f"beta{j}" for j in range(6)], rows)


def _vine_rep(config, seed):
    """One repetition of the vine scenario, drawn from ``seed``: one report
    row per edge (tree, label, true and selected family, kept, tp, fp, mae,
    beta[:6]) and its fit's error.  A failed fit has no rows."""
    structure = benchmark_rvine_structure()
    edges = [e for tree in structure.trees for e in tree]
    rng = np.random.default_rng(seed)
    Z = gen_covariates(config.N, config.p, config.rho, rng)
    eta = true_eta(Z)
    family_of = {e: _family(config.family) if not config.family_draw else _draw_family(rng) for e in edges}
    betas = [np.concatenate([TRUE_BETA, np.zeros(Z.shape[1] - 6)])] * len(edges)
    truth = ConditionalVineModel.from_coefficients(structure, list(family_of.values()), betas)
    U = truth.sample(Z, seed=rng.integers(2**63))
    if config.mode == "specified":
        Z = Z[:, :6]
        edge_families = [[family_of[e] for e in tree] for tree in structure.trees]
        fitted, error = _attempt(fit_vine, U, Z, structure, None,
                                 control=config.control, edge_families=edge_families, deselect=False)
    else:
        fitted, error = _attempt(fit_vine, U, Z, structure, FIT_FAMILIES, control=config.control)
    if error is not None:
        return [], error
    return [
        (t, e.label(), family_of[e].value, fit.family.value, len(fit.kept), *_tp_fp(fit.kept),
         mae_tau(eta, Z @ fit.beta), fit.beta[:6])
        for t, (tree, fits) in enumerate(zip(structure.trees, fitted.models), start=1)
        for e, fit in zip(tree, fits)
    ], None


def run_vine_scenario(config):
    """Simulate and fit the 5-dimensional conditional vine scenario."""
    if config.kind != "vine":
        raise ConfigurationError("config.kind must be 'vine'")
    structure = benchmark_rvine_structure()
    rows, failures = _run_reps(config, _vine_rep)
    # one column per field of the rows; empty ones when every repetition failed
    rep, tree, label, true_family, selected_family, kept, tp, fp, mae, beta = list(zip(*rows)) or [()] * 10
    return VineScenarioReport(
        config=config,
        structure=structure,
        rep=np.array(rep, dtype=int),
        tree=np.array(tree, dtype=int),
        edge_label=list(label),
        beta_hat=np.array(beta, dtype=float).reshape(-1, 6),
        mae=np.array(mae, dtype=float),
        tp=np.array(tp, dtype=int),
        fp=np.array(fp, dtype=int),
        kept_sizes=np.array(kept, dtype=int),
        true_family=list(true_family),
        selected_family=list(selected_family),
        failures=failures,
    )


def run_scenario(config):
    """Dispatch on the configured scenario kind."""
    if config.kind == "bicop":
        return run_bicop_scenario(config)
    return run_vine_scenario(config)
