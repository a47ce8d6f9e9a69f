"""Command-line interface: fit, sample, score and simulate.

Every command is a pure function of its input files, flags and seed; logs
go to standard error and each run writes a JSON manifest echoing the
configuration together with SHA-256 digests of all inputs and outputs.
Exit codes: 0 on success, 2 on usage/data errors, 3 on numerical failures.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import itertools
import json
import logging
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .boosting import BoostControl
from .errors import (
    ConfigurationError,
    DomainError,
    EvaluationError,
    FitError,
    InterfaceError,
    StructureError,
    VineBoostError,
)
from .scoring import dm_test, energy_score, variogram_score
from .simulation import ScenarioConfig, _fmt, _write_table, run_scenario
from .vine import (ConditionalVineModel, VineStructure, _from_file, _prefixed, _require_valid, fit_vine,
                   select_structure)

log = logging.getLogger("vineboost")

_USAGE_ERRORS = (DomainError, InterfaceError, ConfigurationError, StructureError, OSError, json.JSONDecodeError)
_NUMERIC_ERRORS = (EvaluationError, FitError, FloatingPointError, np.linalg.LinAlgError)

INTERCEPT_NAME = "(intercept)"


def _floats(path, ln, header, row, start=0):
    """``row[start:]`` as floats; a bad item names its file, line and column."""
    vals = []
    for j in range(start, len(row)):
        item = row[j]
        try:
            val = float(item)
        except ValueError:
            raise InterfaceError(f"{path}:{ln}: column {j + 1} ({header[j]}): {item!r} is not numeric")
        # float() also parses nan and inf
        if not math.isfinite(val):
            raise InterfaceError(f"{path}:{ln}: column {j + 1} ({header[j]}): {item!r} is not finite")
        vals.append(val)
    return vals


def _csv_rows(path, header_ok=lambda header: True, expected=None):
    """``(line, row)`` for every row of a CSV file, the header row first.

    An empty file, a header that fails ``header_ok`` (the message shows
    ``expected``), a data row whose width differs from the header's and a
    file without data rows raise :class:`InterfaceError` naming the file and
    the line.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise InterfaceError(f"{path}:1: empty file, expected a header row")
        if not header_ok(header):
            raise InterfaceError(f"{path}:1: expected header {expected}")
        yield 1, header
        ln = 1
        for ln, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise InterfaceError(f"{path}:{ln}: expected {len(header)} columns, found {len(row)}")
            yield ln, row
    if ln == 1:
        raise InterfaceError(f"{path}:2: no data rows")


def read_csv_matrix(path):
    """Numeric CSV with a header row; failures carry line/column info."""
    rows = _csv_rows(path)
    _, header = next(rows)
    return header, np.asarray([_floats(path, ln, header, row) for ln, row in rows], dtype=float)


def load_covariates(path, n_rows=None):
    """Covariate matrix with an intercept column prepended: ``n_rows`` (or one) intercept
    rows without a file; a file must have ``n_rows`` rows unless that is None."""
    if path is None:
        return [INTERCEPT_NAME], np.ones((n_rows or 1, 1))
    header, Z = read_csv_matrix(path)
    if n_rows is not None and len(Z) != n_rows:
        raise InterfaceError(f"{path}: {len(Z)} rows do not match the data's {n_rows}")
    return [INTERCEPT_NAME] + header, np.column_stack([np.ones(len(Z)), Z])


def _sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_manifest(path, command, config, seed, inputs, outputs):
    manifest = {
        "command": command,
        "config": config,
        "seed": seed,
        "version": __version__,
        "inputs": {str(p): _sha256(p) for p in inputs if p is not None},
        "outputs": {str(p): _sha256(p) for p in outputs},
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def parse_families(text):
    """The tags of a comma-separated ``--families``; :func:`fit_vine` checks them."""
    return [name.strip() for name in text.split(",") if name.strip()]


def control_from_args(args):
    return BoostControl(
        m_stop=args.m_stop,
        nu=args.nu,
        gamma=args.gamma,
        stopping=args.stopping,
        cv_folds=args.cv_folds,
        seed=args.seed,
    )


def _manifest_path(args, main_output):
    return args.manifest or (str(main_output) + ".manifest.json")


def cmd_fit(args):
    _, U = read_csv_matrix(args.data)
    if np.any((U <= 0.0) | (U >= 1.0)):
        raise InterfaceError(f"{args.data}: copula data must lie strictly inside (0, 1)")
    if args.structure == "auto":
        try:
            structure = select_structure(U)
        except VineBoostError as exc:
            raise _prefixed(exc, args.data)
        log.info("selected structure: %s", [[e.label() for e in t] for t in structure.trees])
    else:
        structure = _from_file(args.structure, lambda obj: _require_valid(VineStructure.from_dict(obj)))
    names, Z = load_covariates(args.covariates, len(U))
    families = parse_families(args.families)
    control = control_from_args(args)
    model = fit_vine(
        U,
        Z,
        structure,
        families,
        control=control,
        truncation_level=args.truncate,
        criterion=args.criterion,
        covariate_names=names,
    )
    model.to_json(args.out_model)
    _write_table(
        args.out_report, ["tree", "edge", "family", "m_opt", "aic", "loglik", "kept", "coefficients"],
        ([t, e.label(), fit.family.value, fit.m_opt, _fmt(fit.aic), _fmt(fit.loglik),
          "|".join(str(j) for j in fit.kept),
          "|".join(f"{names[j]}={_fmt(fit.beta[j])}" for j in np.flatnonzero(fit.beta))]
         for t, (tree, fits) in enumerate(zip(model.structure.trees, model.models), start=1)
         for e, fit in zip(tree, fits)),
    )
    config = {
        "data": args.data, "covariates": args.covariates, "structure": args.structure,
        "families": args.families, "m_stop": args.m_stop, "nu": args.nu, "gamma": args.gamma,
        "stopping": args.stopping, "cv_folds": args.cv_folds, "truncate": args.truncate,
        "criterion": args.criterion,
    }
    if args.structure == "auto":
        config["selected_structure"] = structure.to_dict()
    write_manifest(
        _manifest_path(args, args.out_model), "fit", config, args.seed,
        [args.data, args.covariates] + ([] if args.structure == "auto" else [args.structure]),
        [args.out_model, args.out_report],
    )
    log.info("model written to %s", args.out_model)
    return 0


def cmd_sample(args):
    if args.per_row < 1:
        raise ConfigurationError("--per-row must be >= 1")
    if args.seed < 0:
        raise ConfigurationError("--seed must be >= 0")
    model = ConditionalVineModel.from_json(args.model)
    _, Z = load_covariates(args.covariates)
    if Z.shape[1] != model.n_covariates:
        if args.covariates is None:
            raise InterfaceError("model expects covariates; provide --covariates")
        raise InterfaceError(f"{args.covariates}: {Z.shape[1]} columns (incl. intercept) do not match "
                             f"the model's {model.n_covariates}")
    U = model.sample(np.repeat(Z, args.per_row, axis=0), seed=args.seed)
    _write_table(args.out, ["row"] + [f"u{j + 1}" for j in range(model.d)],
                 ([i // args.per_row] + [_fmt(v) for v in U[i]] for i in range(len(U))))
    config = {"model": args.model, "covariates": args.covariates, "per_row": args.per_row}
    write_manifest(
        _manifest_path(args, args.out), "sample", config, args.seed,
        [args.model, args.covariates], [args.out],
    )
    log.info("%d samples (%d per covariate row) written to %s", len(U), args.per_row, args.out)
    return 0


def _read_forecasts(path):
    rows = _csv_rows(path, lambda header: len(header) >= 4 and header[:3] == ["time", "method", "member"],
                     "time,method,member,<dim...>")
    _, header = next(rows)
    ensembles = {}
    for ln, row in rows:
        ensembles.setdefault((row[0], row[1]), []).append(_floats(path, ln, header, row, start=3))
    return {k: np.asarray(v) for k, v in ensembles.items()}, len(header) - 3


def _read_observations(path, d):
    rows = _csv_rows(path, lambda header: header[:1] == ["time"] and len(header) == d + 1,
                     f"time,<{d} dims>")
    _, header = next(rows)
    obs = {}
    for ln, row in rows:
        if row[0] in obs:
            raise InterfaceError(f"{path}:{ln}: duplicate time {row[0]!r}")
        obs[row[0]] = np.asarray(_floats(path, ln, header, row, start=1))
    return obs


def cmd_score(args):
    scores_wanted = [s.strip() for s in args.scores.split(",") if s.strip()]
    for s in scores_wanted:
        if s not in ("es", "es-mc", "vs"):
            raise ConfigurationError(f"unknown score {s!r}; known: es, es-mc, vs")
    ensembles, d = _read_forecasts(args.forecasts)
    obs = _read_observations(args.observations, d)
    times = sorted({t for t, _ in ensembles})
    methods = sorted({m for _, m in ensembles})
    missing = [t for t in times if t not in obs]
    if missing:
        raise InterfaceError(f"observations missing for times {missing[:5]}")
    for t in times:
        for m in methods:
            if (t, m) not in ensembles:
                raise InterfaceError(f"forecast rows missing for time {t!r}, method {m!r}")

    # every score and DM test first, so that a failing one leaves no partial file
    computed, rows = {}, []
    for t in times:
        for m in methods:
            members = ensembles[(t, m)]
            row = [t, m]
            for s in scores_wanted:
                if s == "es":
                    val = energy_score(members, obs[t], "pairwise")
                elif s == "es-mc":
                    val = energy_score(members, obs[t], "consecutive")
                else:
                    val = variogram_score(members, obs[t], order=args.vs_order)
                computed[(t, m, s)] = val
                row.append(_fmt(val))
            rows.append(row)
    dm_rows = []
    if len(times) < 10:
        log.warning("fewer than 10 time points; skipping Diebold-Mariano tests")
    else:
        for s in scores_wanted:
            for a, b in itertools.combinations(methods, 2):
                res = dm_test(np.asarray([computed[(t, a, s)] for t in times]),
                              np.asarray([computed[(t, b, s)] for t in times]))
                dm_rows.append([s, a, b, "nan" if res.degenerate else _fmt(res.statistic),
                                _fmt(res.p_value), res.lag, int(res.degenerate)])
    _write_table(args.out_scores, ["time", "method"] + scores_wanted, rows)
    _write_table(args.out_dm, ["score", "method_a", "method_b", "statistic", "p_value", "lag", "degenerate"],
                 dm_rows)

    config = {"forecasts": args.forecasts, "observations": args.observations,
              "scores": args.scores, "vs_order": args.vs_order}
    write_manifest(
        _manifest_path(args, args.out_scores), "score", config, None,
        [args.forecasts, args.observations], [args.out_scores, args.out_dm],
    )
    return 0


def cmd_simulate(args):
    config = ScenarioConfig.from_json(args.scenario)
    report = run_scenario(config)
    out_dir = Path(args.out_dir)
    report.write_csv(out_dir)
    if report.failures:
        log.warning("%d repetition(s) failed: %s", len(report.failures), report.failures)
    outputs = sorted(str(p) for p in out_dir.glob("*.csv"))
    write_manifest(
        _manifest_path(args, out_dir / "scenario"), "simulate", config.to_dict(),
        config.seed, [args.scenario], outputs,
    )
    log.info("scenario outputs written to %s", out_dir)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="vineboost",
        description="Gradient-boosted conditional bivariate and vine copulas",
    )
    parser.add_argument("--version", action="version", version=f"vineboost {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="fit a conditional vine copula to copula-scale data")
    p.add_argument("--data", required=True, help="CSV of copula-scale observations, one column per variable")
    p.add_argument("--covariates", default=None, help="CSV of covariates (an intercept column is prepended)")
    p.add_argument("--structure", default="auto", help="'auto' or a JSON file with the vine tree sequence")
    p.add_argument("--families", default="gaussian,claytonI,claytonII,gumbelI,gumbelII")
    p.add_argument("--m-stop", type=int, default=500, dest="m_stop")
    p.add_argument("--nu", type=float, default=0.1)
    p.add_argument("--gamma", type=float, default=0.01)
    p.add_argument("--stopping", choices=["aic", "cv"], default="aic")
    p.add_argument("--cv-folds", type=int, default=10, dest="cv_folds")
    p.add_argument("--criterion", choices=["aic", "loglik", "predictive_risk"], default="aic")
    p.add_argument("--truncate", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-model", required=True, dest="out_model")
    p.add_argument("--out-report", required=True, dest="out_report")
    p.add_argument("--manifest", default=None)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("sample", help="draw samples from a fitted model")
    p.add_argument("--model", required=True)
    p.add_argument("--covariates", default=None)
    p.add_argument("--per-row", type=int, default=1, dest="per_row")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--manifest", default=None)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("score", help="energy/variogram scores plus Diebold-Mariano tests")
    p.add_argument("--forecasts", required=True, help="CSV with header time,method,member,<dims...>")
    p.add_argument("--observations", required=True, help="CSV with header time,<dims...>")
    p.add_argument("--scores", default="es,vs", help="comma list from es, es-mc, vs")
    p.add_argument("--vs-order", type=float, default=0.5, dest="vs_order")
    p.add_argument("--out-scores", required=True, dest="out_scores")
    p.add_argument("--out-dm", required=True, dest="out_dm")
    p.add_argument("--manifest", default=None)
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("simulate", help="run a simulation scenario from a JSON config")
    p.add_argument("--scenario", required=True)
    p.add_argument("--out-dir", required=True, dest="out_dir")
    p.add_argument("--manifest", default=None)
    p.set_defaults(func=cmd_simulate)

    return parser


def main(argv=None):
    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(levelname)s %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _USAGE_ERRORS as exc:
        log.error("%s", exc)
        return 2
    except _NUMERIC_ERRORS as exc:
        log.error("numerical failure: %s", exc)
        return 3


if __name__ == "__main__":
    sys.exit(main())
