"""Regular-vine structures and conditional vine copula models.

A vine structure is a sequence of d-1 linked trees whose edges carry
conditioned pairs and conditioning sets subject to the proximity condition.
Fitting proceeds top-down: tree-1 edges are estimated on the raw copula
data, pseudo-observations for higher trees are obtained by pushing the data
through the fitted h-functions with each observation's own covariate-driven
Kendall's tau.  One memoized recursion for the conditional CDF F(v | D)
(:func:`_cond_cdf`) serves fitting, density evaluation, the forward
Rosenblatt transform and structure selection; sampling inverts it (inverse
Rosenblatt transform).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import boosting as bst
from .boosting import BoostControl, FittedPairCopula, predict_tau
from .errors import ConfigurationError, InterfaceError, StructureError
from .families import (CopulaFamily, _checked_array, _clamp_u, _family, hfunc, hinv, log_density, tau_to_theta,
                       theta_to_tau)

__all__ = [
    "VineEdge",
    "VineStructure",
    "ConditionalVineModel",
    "dvine_structure",
    "validate_structure",
    "fit_vine",
    "select_structure",
    "truncate",
]

MODEL_SCHEMA_VERSION = 1


@dataclass(frozen=True, order=True)
class VineEdge:
    """One pair-copula edge: conditioned pair (a, b) given the set ``cond``."""

    a: int
    b: int
    cond: tuple = ()

    def __post_init__(self):
        if self.a == self.b:
            raise StructureError("edge must join two distinct variables")
        a, b = sorted((int(self.a), int(self.b)))
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "cond", tuple(sorted(int(v) for v in self.cond)))
        if a in self.cond or b in self.cond:
            raise StructureError("conditioned variables cannot appear in the conditioning set")

    @property
    def union(self) -> frozenset:
        return frozenset((self.a, self.b)) | frozenset(self.cond)

    def label(self) -> str:
        if self.cond:
            return f"{self.a},{self.b};{','.join(str(v) for v in self.cond)}"
        return f"{self.a},{self.b}"


@dataclass(frozen=True)
class VineStructure:
    """A validated-on-demand regular-vine tree sequence on variables 0..d-1."""

    d: int
    trees: tuple

    def __post_init__(self):
        object.__setattr__(
            self, "trees", tuple(tuple(sorted(tree)) for tree in self.trees)
        )

    @classmethod
    def from_edges(cls, d, trees):
        return cls(d=int(d), trees=tuple(tuple(trees_i) for trees_i in trees))

    def to_dict(self):
        return {
            "d": self.d,
            "trees": [
                [{"a": e.a, "b": e.b, "conditioning": list(e.cond)} for e in tree]
                for tree in self.trees
            ],
        }

    @classmethod
    def from_dict(cls, obj):
        d, trees, _ = _tree_records(obj, "structure")
        return cls.from_edges(d, trees)


def _field(obj, key, convert, where):
    """``convert(obj[key])``; a missing key or a bad value raises
    :class:`InterfaceError` naming ``where`` and the key."""
    if not isinstance(obj, dict) or key not in obj:
        raise InterfaceError(f"{where}: missing key {key!r}")
    try:
        return convert(obj[key])
    except (TypeError, ValueError) as exc:
        raise InterfaceError(f"{where}: key {key!r}: {exc}") from None


def _tree_records(obj, where):
    """Dimension, per-tree edges and the record of each edge of a document."""
    records = {}
    trees = []
    for t, tree_obj in enumerate(_field(obj, "trees", list, where), start=1):
        if not isinstance(tree_obj, list):
            raise InterfaceError(f"{where} tree {t}: expected a list of edge records")
        tree = []
        for i, rec in enumerate(tree_obj, start=1):
            at = f"{where} tree {t} edge {i}"
            if not isinstance(rec, dict):
                raise InterfaceError(f"{at}: expected an edge record object")
            cond = ()
            if "conditioning" in rec:
                cond = _field(rec, "conditioning", lambda v: tuple(int(x) for x in v), at)
            try:
                e = VineEdge(_field(rec, "a", int, at), _field(rec, "b", int, at), cond)
            except StructureError as exc:
                raise StructureError(f"{at}: {exc}") from None
            records[e] = rec
            tree.append(e)
        trees.append(tree)
    return _field(obj, "d", int, where), trees, records


def _prefixed(exc, head):
    """``exc``, to be raised again, with ``head`` before its message."""
    exc.args = ((f"{head}: {exc.args[0]}",) + exc.args[1:]) if exc.args else (head,)
    return exc


def _from_file(path, from_dict):
    """``from_dict`` of the JSON document in the file ``path``.  Invalid
    JSON and a malformed document raise with the path before the message."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return from_dict(json.load(fh))
    except (json.JSONDecodeError, InterfaceError, StructureError, ConfigurationError) as exc:
        raise _prefixed(exc, path)


def _finite_vector(value):
    out = np.asarray(value, dtype=float)
    if out.ndim != 1 or not np.all(np.isfinite(out)):
        raise ValueError("expected a list of finite numbers")
    return out


def dvine_structure(order):
    """D-vine on the given variable ordering (each tree is a path)."""
    order = [int(v) for v in order]
    d = len(order)
    trees = []
    for t in range(1, d):
        tree = []
        for i in range(d - t):
            cond = order[i + 1 : i + t]
            tree.append(VineEdge(order[i], order[i + t], tuple(cond)))
        trees.append(tree)
    return VineStructure.from_edges(d, trees)


def validate_structure(structure):
    """Check the regular-vine conditions; returns a list of violations.

    An empty list means the structure is valid.  Never raises on invalid
    input; the first offending edge of each failed check is reported.
    """
    violations = []
    d = structure.d
    trees = structure.trees
    if len(trees) != d - 1:
        violations.append(f"expected {d - 1} trees, found {len(trees)}")
        return violations

    tree1_nodes = set()
    for tree in trees:
        for e in tree:
            tree1_nodes |= e.union
    if tree1_nodes - set(range(d)):
        violations.append(f"variable labels {sorted(tree1_nodes)} exceed dimension {d}")
        return violations

    for t, tree in enumerate(trees, start=1):
        if len(tree) != d - t:
            violations.append(f"tree {t} has {len(tree)} edges, expected {d - t}")
        for e in tree:
            if len(e.cond) != t - 1:
                violations.append(f"tree {t} edge {e.label()} has a conditioning set of size {len(e.cond)}")

    if violations:
        return violations

    # tree 1 must be a spanning tree on the d variables
    if not _is_tree({v: v for v in range(d)}, [(e.a, e.b) for e in trees[0]]):
        violations.append("tree 1 is not a spanning tree on the variables")

    # the parents of (a, b | D) are the tree-t edges on D + {a} and D + {b}
    for t in range(1, d - 1):
        prev = {e.union for e in trees[t - 1]}
        links = []
        for e in trees[t]:
            pair = (e.union - {e.b}, e.union - {e.a})
            if not (pair[0] in prev and pair[1] in prev):
                violations.append(
                    f"tree {t + 1} edge {e.label()} cannot be formed from two tree-{t} edges "
                    "sharing a node (proximity violation)"
                )
                continue
            links.append(pair)
        if violations:
            return violations
        if not _is_tree(prev, links):
            violations.append(f"tree {t + 1} is not a tree on the edges of tree {t}")
    return violations


def _union_find(nodes):
    """Disjoint sets over ``nodes``, one per node at first.

    Returns ``union(a, b)``, which merges the sets holding a and b and
    returns False when they were already the same set.
    """
    parent = {n: n for n in nodes}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra == rb:
            return False
        parent[ra] = rb
        return True

    return union


def _is_tree(nodes, links):
    if len(links) != len(nodes) - 1:
        return False
    union = _union_find(nodes)
    return all(union(a, b) for a, b in links)


def _require_valid(structure):
    """``structure``; a violation of the regular-vine conditions raises :class:`StructureError`."""
    violations = validate_structure(structure)
    if violations:
        raise StructureError("; ".join(violations))
    return structure


def _columns(U):
    """The columns of U by variable, clamped into [U_EPS, 1 - U_EPS]."""
    return {v: _clamp_u(U[:, v]) for v in range(U.shape[1])}


def _check_level(level, d, error=ConfigurationError):
    if not 1 <= level <= d - 1:
        raise error(f"truncation level must lie in [1, {d - 1}]")
    return level


def _edge_index(trees):
    """``(v, rest) -> edge`` for both conditioned variables v of every edge,
    where ``rest`` is the sorted tuple of the edge's other variables."""
    index = {}
    for tree in trees:
        for e in tree:
            index[(e.a, tuple(sorted(e.union - {e.a})))] = e
            index[(e.b, tuple(sorted(e.union - {e.b})))] = e
    return index


def _cond_cdf(var, cond, index, h, values, cache):
    """F(var | cond), the conditional CDF the vine assigns to ``var``.

    With ``cond`` empty it is ``values[var]``.  Otherwise it is the h-function
    of the edge ``e = index[(var, cond)]`` applied to the two margins one tree
    below, ``h(e, which, F(e.a | e.cond), F(e.b | e.cond))``, with ``which``
    "1|2" when ``var`` is ``e.a``.  Results are memoized in ``cache``.
    """
    if not cond:
        return values[var]
    key = (var, cond)
    if key not in cache:
        e = index[key]
        ua = _cond_cdf(e.a, e.cond, index, h, values, cache)
        ub = _cond_cdf(e.b, e.cond, index, h, values, cache)
        cache[key] = h(e, "1|2" if var == e.a else "2|1", ua, ub)
    return cache[key]


def _fitted_h(fit_of, Z):
    """The h of :func:`_cond_cdf` for edges fitted as ``fit_of[e]``, at each
    row's covariates, clamped into [U_EPS, 1 - U_EPS]."""

    def h(e, which, ua, ub):
        fit = fit_of[e]
        return _clamp_u(hfunc(fit.family, which, ua, ub, predict_tau(fit, Z)))

    return h


@dataclass
class ConditionalVineModel:
    """A vine structure plus one fitted pair copula per edge.

    ``models`` gives the fits of the trees up to ``truncation_level`` (of all
    trees without one) and may give those above it; every edge above the
    level is independence, whatever fit was given for it.
    """

    structure: VineStructure
    models: tuple
    covariate_names: tuple
    truncation_level: int | None = None

    def __post_init__(self):
        trees = self.structure.trees
        if self.truncation_level is not None:
            _check_level(self.truncation_level, self.d)
        level = self.truncation_level or len(trees)
        models = [tuple(fits) for fits in self.models]
        aligned = all(len(tree) == len(fits) for tree, fits in zip(trees, models))
        if not (aligned and level <= len(models) <= len(trees)):
            raise InterfaceError("models must align with the structure's trees")
        for tree, fits in zip(trees, models):
            for e, fit in zip(tree, fits):
                if len(fit.beta) != len(self.covariate_names):
                    raise InterfaceError(f"model edge {e.label()}: key 'beta': {len(fit.beta)} coefficients"
                                         f" for {len(self.covariate_names)} covariate names")
        self.models = tuple(models[:level]) + tuple(
            tuple(FittedPairCopula.independence(self.n_covariates) for _ in tree) for tree in trees[level:])
        self._by_edge = {e: fit for tree, fits in zip(trees, self.models) for e, fit in zip(tree, fits)}
        self._index = _edge_index(trees)

    @property
    def d(self) -> int:
        return self.structure.d

    @property
    def n_covariates(self) -> int:
        return len(self.covariate_names)

    def pair_model(self, edge):
        return self._by_edge[edge]

    def _check_Z(self, Z):
        return _checked_array("Z", Z, cols=self.n_covariates)

    def _check_UZ(self, U, Z, name="U"):
        Z = self._check_Z(Z)
        return _checked_array(name, U, cols=self.d, rows=len(Z)), Z

    def _cdf(self, values, Z):
        """``F(var, cond)`` of :func:`_cond_cdf` for this model at the rows of Z."""
        h, cache = _fitted_h(self._by_edge, Z), {}
        return lambda var, cond: _cond_cdf(var, cond, self._index, h, values, cache)

    def pseudo_observations(self, U, Z):
        """The h-function-transformed data each edge's copula acts on."""
        return self._pseudo_observations(*self._check_UZ(U, Z))

    def _pseudo_observations(self, U, Z):
        F = self._cdf(_columns(U), Z)
        return {e: (F(e.a, e.cond), F(e.b, e.cond))
                for tree in self.structure.trees[: self.truncation_level] for e in tree}

    def log_density(self, U, Z):
        """Per-row log density of the conditional vine copula."""
        U, Z = self._check_UZ(U, Z)
        out = np.zeros(U.shape[0])
        for e, (ua, ub) in self._pseudo_observations(U, Z).items():
            fit = self._by_edge[e]
            if fit.family != CopulaFamily.INDEPENDENCE:
                out += log_density(fit.family, ua, ub, predict_tau(fit, Z))
        return out

    def _order(self):
        """The variables in Rosenblatt order: the last is the ``.b`` of the
        edge joining all variables, the one before it the ``.b`` of the edge
        joining the rest, and so on."""
        by_union = {e.union: e for tree in self.structure.trees for e in tree}
        rest = frozenset(range(self.d))
        order = []
        while len(rest) > 1:
            order.append(by_union[rest].b)
            rest = rest - {order[-1]}
        return [*rest, *reversed(order)]

    def inverse_rosenblatt(self, W, Z):
        """Map uniform seeds through the vine's inverse Rosenblatt transform."""
        return self._inverse_rosenblatt(*self._check_UZ(W, Z, "W"))

    def _inverse_rosenblatt(self, W, Z):
        values = {}
        F = self._cdf(values, Z)
        order = self._order()
        for k, x in enumerate(order):
            chain, cond = [], tuple(sorted(order[:k]))
            while cond:
                chain.append(self._index[(x, cond)])
                cond = chain[-1].cond
            q = _clamp_u(W[:, k])
            for e in chain:
                fit = self._by_edge[e]
                arg = F(e.b if x == e.a else e.a, e.cond)
                q = hinv(fit.family, "1|2" if x == e.a else "2|1", q, arg, predict_tau(fit, Z))
            values[x] = np.asarray(q, dtype=float)
        U = np.empty_like(W)
        for v, col in values.items():
            U[:, v] = col
        return U

    def rosenblatt(self, U, Z):
        """Forward Rosenblatt transform; inverse of :meth:`inverse_rosenblatt`.

        Column k is F(x_k | x_0, ..., x_{k-1}) in the order of
        :meth:`inverse_rosenblatt`, clamped into [U_EPS, 1 - U_EPS].
        """
        U, Z = self._check_UZ(U, Z)
        F = self._cdf(_columns(U), Z)
        order = self._order()
        W = np.empty_like(U)
        for k, x in enumerate(order):
            W[:, k] = F(x, tuple(sorted(order[:k])))
        return W

    def sample(self, Z, seed):
        """One d-vector per covariate row; deterministic for a fixed seed."""
        Z = self._check_Z(Z)
        rng = np.random.default_rng(seed)
        W = rng.random((Z.shape[0], self.d))
        return self._inverse_rosenblatt(W, Z)

    # -- serialization ------------------------------------------------------

    def to_dict(self):
        doc = self.structure.to_dict()
        for records, fits in zip(doc["trees"], self.models):
            for rec, fit in zip(records, fits):
                rec.update(family=fit.family.value, beta=[float(x) for x in fit.beta], m_opt=int(fit.m_opt),
                           aic=float(fit.aic), loglik=float(fit.loglik), kept=[int(j) for j in fit.kept])
        doc.update(schema_version=MODEL_SCHEMA_VERSION, truncation_level=self.truncation_level,
                   covariate_names=list(self.covariate_names))
        return doc

    @classmethod
    def from_dict(cls, obj):
        """The model of a :meth:`to_dict` document.

        A malformed document raises :class:`InterfaceError`.  For a missing
        key, a bad value or a ``beta`` whose length is not the number of
        covariate names the message names the edge and the key; for a
        missing or extra edge record it names the tree.
        """
        version = obj.get("schema_version") if isinstance(obj, dict) else None
        if version != MODEL_SCHEMA_VERSION:
            raise InterfaceError(f"unsupported model schema version {version!r}")
        d, trees, records = _tree_records(obj, "model")
        structure = VineStructure.from_edges(d, trees)
        violations = validate_structure(structure)
        if violations:
            raise InterfaceError(f"model: {'; '.join(violations)}")
        names = _field(obj, "covariate_names", tuple, "model")
        level = _field(obj, "truncation_level",
                       lambda v: v if v is None else _check_level(int(v), d, ValueError), "model")
        models = []
        for tree in structure.trees:
            fits = []
            for e in tree:
                rec, at = records[e], f"model edge {e.label()}"
                fits.append(FittedPairCopula(
                    family=_field(rec, "family", _family, at),
                    beta=_field(rec, "beta", _finite_vector, at),
                    m_opt=_field(rec, "m_opt", int, at),
                    aic=_field(rec, "aic", float, at),
                    loglik=_field(rec, "loglik", float, at),
                    kept=_field(rec, "kept", lambda v: tuple(int(j) for j in v), at),
                ))
            models.append(fits)
        return cls(structure=structure, models=models, covariate_names=names, truncation_level=level)

    def to_json(self, path=None):
        text = json.dumps(self.to_dict(), indent=2, sort_keys=True)
        if path is not None:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        return text

    @classmethod
    def from_json(cls, source):
        if isinstance(source, str) and source.lstrip().startswith("{"):
            return cls.from_dict(json.loads(source))
        return _from_file(source, cls.from_dict)

    @classmethod
    def from_coefficients(cls, structure, families, betas, covariate_names=None):
        """Build a synthetic model from one family (a :class:`CopulaFamily`
        or its tag) and one coefficient vector per edge, in tree order.
        Counts other than the structure's edges raise :class:`InterfaceError`;
        an unknown tag raises :class:`ConfigurationError`."""
        families, betas = list(families), list(betas)
        n_edges = sum(len(tree) for tree in structure.trees)
        if not len(families) == len(betas) == n_edges:
            raise InterfaceError(f"{len(families)} families and {len(betas)} coefficient vectors"
                                 f" for the {n_edges} edges of the structure")
        fits = map(FittedPairCopula.from_coefficients, families, betas)
        models = [[next(fits) for _ in tree] for tree in structure.trees]
        if covariate_names is None:
            covariate_names = tuple(f"z{j}" for j in range(len(models[0][0].beta)))
        return cls(structure=structure, models=models, covariate_names=tuple(covariate_names))


def _edge_candidates(structure, levels, families, edge_families, deselect, criterion):
    """The candidate families of every edge of the fitted trees, per tree.

    Raises :class:`ConfigurationError` when ``families``, ``edge_families``
    or ``criterion`` do not fit the structure, before any edge is fitted.
    """
    if edge_families is None:
        if not deselect:
            raise ConfigurationError("deselect=False requires edge_families")
        if families is None:
            raise ConfigurationError("families is required without edge_families")
        candidates = tuple(bst._candidates(families, criterion))
        return [[candidates] * len(tree) for tree in structure.trees[:levels]]
    if deselect:
        bst._check_criterion(criterion)
    if len(edge_families) < levels:
        raise ConfigurationError(f"edge_families has {len(edge_families)} trees, {levels} are fitted")
    out = []
    for t, tree in enumerate(structure.trees[:levels], start=1):
        pinned = list(edge_families[t - 1])
        if len(pinned) != len(tree):
            raise ConfigurationError(f"edge_families tree {t} has {len(pinned)} families for {len(tree)} edges")
        out.append([(_family(f),) for f in pinned])
    return out


def fit_vine(
    U,
    Z,
    structure,
    families,
    control=None,
    truncation_level=None,
    edge_families=None,
    deselect=True,
    criterion="aic",
    covariate_names=None,
):
    """Sequential top-down estimation of a conditional vine copula.

    The edges of one tree are boosted together, tree by tree, on one
    standardized design of Z made for that tree, and each edge gets the
    fit that :func:`fit_pair` gives it alone.  Tree-1 edges are fit on the raw
    columns; each deeper tree is fit on pseudo-observations pushed through
    the parents' h-functions with the per-observation tau implied by that
    row's covariates.  ``edge_families`` (a list of per-tree lists) pins one
    family per edge; ``deselect=False`` requires it and fits each edge like
    ``fit_family(..., refit=False)`` (early stopping, no deselection or
    refit).  ``families``, ``edge_families`` and ``criterion`` are checked
    before any edge is fitted (:class:`ConfigurationError`).
    ``truncation_level`` (None, or 1 to d - 1, else
    :class:`ConfigurationError`) fits only that many trees and sets the
    edges above them to independence.  The first edge of a tree whose fit
    fails raises the same exception object its own fit raises, with the
    edge label prefixed to its message, so ``FitError.diagnostics``
    survives.
    """
    control = control or BoostControl()
    U = _checked_array("U", U, cols=structure.d)
    Z = _checked_array("Z", Z, rows=len(U))
    _require_valid(structure)
    if covariate_names is None:
        covariate_names = tuple(f"z{j}" for j in range(Z.shape[1]))
    if len(covariate_names) != Z.shape[1]:
        raise InterfaceError(f"{len(covariate_names)} covariate names for the {Z.shape[1]} columns of Z")

    levels = len(structure.trees) if truncation_level is None else _check_level(truncation_level, structure.d)
    candidates = _edge_candidates(structure, levels, families, edge_families, deselect, criterion)

    # fit_of fills tree by tree; an edge's pseudo-observations need only the
    # fits of the trees below it
    models, fit_of, cache = [], {}, {}
    index, h, values = _edge_index(structure.trees), _fitted_h(fit_of, Z), _columns(U)
    for t, tree in enumerate(structure.trees[:levels]):
        # the edges of one tree stack by their candidate families; outcome
        # holds each edge's fit or error
        data, outcome, stacks = {}, {}, {}
        for e, fams in zip(tree, candidates[t]):
            try:
                pairs = np.column_stack([_cond_cdf(v, e.cond, index, h, values, cache) for v in (e.a, e.b)])
                data[e] = bst._checked_pairs(pairs)
                stacks.setdefault(fams, []).append(e)
            except Exception as exc:
                outcome[e] = exc
        for fams, edges in stacks.items():
            pairs = np.stack([data[e] for e in edges])
            try:
                if deselect:
                    fits = bst._fit_pairs(pairs, Z, fams, control, criterion)
                else:
                    fits = bst._fit_edges(pairs, Z, fams, control, refit=False)[fams[0]]
            except Exception as exc:
                fits = [exc] * len(edges)
            outcome.update(zip(edges, fits))
        for e in tree:
            if isinstance(outcome[e], Exception):
                raise _prefixed(outcome[e], f"edge {e.label()}")
            fit_of[e] = outcome[e]
        models.append([fit_of[e] for e in tree])

    return ConditionalVineModel(
        structure=structure,
        models=models,
        covariate_names=tuple(covariate_names),
        truncation_level=truncation_level,
    )


def truncate(model, level):
    """Replace all pair copulas above the given tree level by independence.

    The level must lie in 1 … d - 1 (else :class:`ConfigurationError`).
    """
    return ConditionalVineModel(structure=model.structure, models=model.models,
                                covariate_names=model.covariate_names, truncation_level=level)


def _kruskal_max(nodes, candidates):
    """Maximum spanning tree; candidates are (weight, key, payload) tuples."""
    union = _union_find(nodes)
    chosen = []
    for weight, key, payload in sorted(candidates, key=lambda c: (-c[0], c[1])):
        if union(*payload["nodes"]):
            chosen.append(payload)
        if len(chosen) == len(nodes) - 1:
            break
    return chosen


def select_structure(U):
    """Tree-by-tree maximum spanning tree on |empirical Kendall's tau|.

    Covariates are ignored at this stage: edge weights in higher trees use
    pseudo-observations from provisional unconditional Gaussian fits whose
    parameter is the tau inversion of the lower-tree pair.  The result
    always satisfies the regular-vine conditions.  A constant column of U,
    whose tau is undefined, raises :class:`InterfaceError`.
    """
    # Imported here: scipy.stats costs most of the package's import time.
    from scipy.stats import kendalltau

    U = _checked_array("U", U)
    n, d = U.shape
    if d < 2:
        raise InterfaceError(f"U must be an (N, d) array with d >= 2, got shape {U.shape}")
    if n < 30:
        raise ConfigurationError("structure selection needs at least 30 observations")
    constant = np.flatnonzero(np.all(U == U[0], axis=0))
    if len(constant):
        raise InterfaceError(f"U column {constant[0]} is constant: its Kendall's tau is undefined")

    # the recursion of the model, with a Gaussian h at the τ̂ of each chosen edge
    values, index, tau_hat, cache = _columns(U), {}, {}, {}

    def gauss_h(e, which, ua, ub):
        return _clamp_u(hfunc(CopulaFamily.GAUSSIAN, which, ua, ub, tau_hat[e]))

    # tree t + 1 joins two edges of tree t, given by their unions, whose
    # unions share t variables; tree 1 joins single variables
    trees = []
    nodes = [frozenset((v,)) for v in range(d)]
    for t in range(d - 1):
        candidates = []
        for i in range(len(nodes)):
            for j in range(i + 1, len(nodes)):
                p, q = nodes[i], nodes[j]
                if len(p & q) != t:
                    continue
                e = VineEdge(*sorted(p ^ q), tuple(p & q))
                ua, ub = (_cond_cdf(v, e.cond, index, gauss_h, values, cache) for v in (e.a, e.b))
                tau = kendalltau(ua, ub).statistic
                candidates.append((abs(tau), (e.a, e.b, e.cond), {"nodes": (p, q), "edge": e, "tau": tau}))
        tree = []
        for payload in _kruskal_max(nodes, candidates):
            tree.append(payload["edge"])
            # τ̂ of the Gaussian whose θ is capped at ±0.999
            theta = float(np.clip(tau_to_theta(CopulaFamily.GAUSSIAN, float(payload["tau"])), -0.999, 0.999))
            tau_hat[payload["edge"]] = theta_to_tau(CopulaFamily.GAUSSIAN, theta)
        index.update(_edge_index([tree]))
        trees.append(tree)
        nodes = [e.union for e in tree]

    return _require_valid(VineStructure.from_edges(d, trees))
