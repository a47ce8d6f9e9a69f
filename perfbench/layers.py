"""Per-layer metrics, computed from the spans of a traced run.

Every metric is per operation: a sum over the traced operations divided by
their number.  The ``simulation`` layer runs only during set-up, so its
metrics are per set-up instead.
"""

from __future__ import annotations

from tracing import ROOT, SPAN_NAMES, self_times

FIT_FAMILY_NAMES = ("gaussian", "claytonI", "claytonII", "gumbelI", "gumbelII")

#: Throughputs of the forecast round's steps, timed by the workload itself.
RATES = (
    ("vine.sample.rows_per_s", "rows/s"),
    ("vine.log_density.rows_per_s", "rows/s"),
    ("vine.rosenblatt.rows_per_s", "rows/s"),
    ("scoring.cases_per_s", "cases/s"),
)


def specs():
    """``(name, unit, better)`` of every per-layer metric, in report order."""
    out = []
    for name in SPAN_NAMES:
        out.append((f"{name}.calls", "count", "lower"))
        out.append((f"{name}.self_s", "s", "lower"))
    out += [(f"families.hinv.{fam}.self_s", "s", "lower") for fam in FIT_FAMILY_NAMES]
    out += [
        ("families.elements", "count", "lower"),
        ("boosting.iterations", "count", "lower"),
        ("boosting.refit_iterations", "count", "lower"),
        ("boosting.iter_us", "us", "lower"),
        ("boosting.useful_iter_ratio", "ratio", "higher"),
        ("boosting.m_opt_at_m_stop", "count", "lower"),
        ("boosting.candidate_failures", "count", "lower"),
        ("vine.fit_vine.edge_parallelism", "ratio", "higher"),
    ]
    out += [(name, unit, "higher") for name, unit in RATES]
    out.append(("trace.overhead", "ratio", "lower"))
    return out


def check_op(spans):
    """Problems with the self-time arithmetic of one operation's spans.

    Self times must be non-negative and sum to the root span's duration plus
    the overlap excess of concurrent children (zero without concurrency).
    """
    selfs, excess = self_times(spans)
    roots = [s for s in spans if s.name == ROOT]
    if len(roots) != 1:
        return [f"expected one root span, found {len(roots)}"]
    problems = [f"negative self time {v!r} in {s.name}" for s in spans if (v := selfs[s.id]) < -1e-9]
    total = sum(selfs.values())
    want = roots[0].duration + excess
    if abs(total - want) > 1e-9 * max(1.0, want):
        problems.append(f"self times sum to {total!r}, root plus overlap is {want!r}")
    return problems


def _totals(spans):
    selfs, _ = self_times(spans)
    by_id = {s.id: s for s in spans}
    calls = dict.fromkeys(SPAN_NAMES, 0)
    self_s = dict.fromkeys(SPAN_NAMES, 0.0)
    hinv_s = dict.fromkeys(FIT_FAMILY_NAMES, 0.0)
    c = dict.fromkeys(
        ("elements", "iterations", "refit_iterations", "boost_s", "m_opt", "m_stop",
         "at_m_stop", "candidate_failures", "edge_s", "fit_vine_s"), 0
    )
    for s in spans:
        if s.name == ROOT:
            continue
        calls[s.name] += 1
        self_s[s.name] += selfs[s.id]
        parent = by_id.get(s.parent)
        parent_name = parent.name if parent is not None else None
        if s.error and parent_name == "boosting.fit_pair":
            c["candidate_failures"] += 1
        if s.note is None:
            pass
        elif s.name == "families.hinv":
            family, elements = s.note
            hinv_s[family] = hinv_s.get(family, 0.0) + selfs[s.id]
            c["elements"] += elements
        elif s.name.startswith("families."):
            c["elements"] += s.note
        elif s.name == "boosting.boost":
            iterations, refit = s.note
            c["iterations"] += iterations
            c["refit_iterations"] += iterations if refit else 0
            c["boost_s"] += s.duration
        elif s.name in ("boosting.stop_aic", "boosting.stop_cv"):
            m_opt, m_stop = s.note
            c["m_opt"] += m_opt
            c["m_stop"] += m_stop
            c["at_m_stop"] += m_opt == m_stop
        if s.name == "vine.fit_vine":
            c["fit_vine_s"] += s.duration
        elif parent_name == "vine.fit_vine" and s.name in ("boosting.fit_pair", "boosting.fit_plain"):
            c["edge_s"] += s.duration
    return calls, self_s, hinv_s, c


def metrics(op_spans, n_ops, setup_spans, rates, overhead):
    """All per-layer metrics.

    ``op_spans`` are the spans of ``n_ops`` traced operations and
    ``setup_spans`` those of one set-up; ``rates`` maps the names in
    :data:`RATES` to measured values (absent means the step did not run).
    """
    calls, self_s, hinv_s, c = _totals(op_spans)
    setup_calls, setup_self, _, _ = _totals(setup_spans)
    out = {}
    for name in SPAN_NAMES:
        if name.startswith("simulation."):
            out[f"{name}.calls"] = setup_calls[name]
            out[f"{name}.self_s"] = setup_self[name]
        else:
            out[f"{name}.calls"] = calls[name] / n_ops
            out[f"{name}.self_s"] = self_s[name] / n_ops
    for fam in FIT_FAMILY_NAMES:
        out[f"families.hinv.{fam}.self_s"] = hinv_s[fam] / n_ops
    out["families.elements"] = c["elements"] / n_ops
    out["boosting.iterations"] = c["iterations"] / n_ops
    out["boosting.refit_iterations"] = c["refit_iterations"] / n_ops
    out["boosting.iter_us"] = 1e6 * c["boost_s"] / c["iterations"] if c["iterations"] else 0.0
    out["boosting.useful_iter_ratio"] = c["m_opt"] / c["m_stop"] if c["m_stop"] else 0.0
    out["boosting.m_opt_at_m_stop"] = c["at_m_stop"] / n_ops
    out["boosting.candidate_failures"] = c["candidate_failures"] / n_ops
    out["vine.fit_vine.edge_parallelism"] = c["edge_s"] / c["fit_vine_s"] if c["fit_vine_s"] else 0.0
    for name, _ in RATES:
        out[name] = rates.get(name, 0.0)
    out["trace.overhead"] = overhead
    return out
