import threading
import time

import numpy as np
import pytest

import layers
import vineboost
from tracing import ROOT, Span, Tracer, self_times
from vineboost import boosting as bst
from vineboost.boosting import BoostControl
from vineboost.families import FIT_FAMILIES, CopulaFamily, sample_pair
from vineboost.vine import ConditionalVineModel


def _span(sid, name, start, end, parent, thread):
    return Span(sid, name, start, end, parent, 0, thread)


def test_self_times_with_overlapping_children_from_two_threads():
    spans = [
        _span(0, ROOT, 0.0, 10.0, None, 1),
        _span(1, "vine.fit_vine", 1.0, 9.0, 0, 1),
        _span(2, "boosting.fit_pair", 2.0, 6.0, 1, 1),   # thread 1
        _span(3, "boosting.fit_pair", 4.0, 8.0, 1, 2),   # thread 2, overlaps [4, 6]
        _span(4, "families.log_density", 5.0, 7.0, 3, 2),
    ]
    selfs, excess = self_times(spans)
    assert selfs == {0: 2.0, 1: 2.0, 2: 4.0, 3: 2.0, 4: 2.0}
    assert excess == 2.0
    assert sum(selfs.values()) == spans[0].duration + excess
    assert layers.check_op(spans) == []


def test_self_times_without_concurrency_sum_to_root():
    spans = [
        _span(0, ROOT, 0.0, 5.0, None, 1),
        _span(1, "boosting.boost", 0.5, 4.0, 0, 1),
        _span(2, "families.loss_gradient", 1.0, 2.0, 1, 1),
        _span(3, "families.log_density", 2.0, 3.5, 1, 1),
    ]
    selfs, excess = self_times(spans)
    assert excess == 0.0
    assert sum(selfs.values()) == pytest.approx(5.0, abs=1e-12)
    assert min(selfs.values()) >= 0.0


def test_check_op_flags_broken_arithmetic():
    # a child that outlives its parent cannot come from a correct tracer
    spans = [_span(0, ROOT, 0.0, 1.0, None, 1), _span(1, "families.hfunc", 0.5, 3.0, 0, 1)]
    assert self_times(spans)[0] == {0: 0.5, 1: 2.5}
    assert layers.check_op(spans) == ["self times sum to 3.0, root plus overlap is 1.0"]
    assert layers.check_op(spans[1:]) == ["expected one root span, found 0"]


def test_pool_thread_spans_take_the_op_threads_innermost_span_as_parent():
    tracer = Tracer()
    inner = tracer.wrap("boosting.fit_pair", lambda: time.sleep(0.02))
    barrier = threading.Barrier(2, timeout=10)

    def worker():
        barrier.wait()
        inner()

    def fan_out():
        threads = [threading.Thread(target=worker) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert not any(t.is_alive() for t in threads)

    outer = tracer.wrap("vine.fit_vine", fan_out)
    with tracer.op(7):
        outer()
    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)
    (fit_vine,) = by_name["vine.fit_vine"]
    children = by_name["boosting.fit_pair"]
    assert len(children) == 2 and len({c.thread for c in children}) == 2
    assert all(c.parent == fit_vine.id and c.op == 7 for c in children)
    _, excess = self_times(tracer.spans)
    assert excess > 0.0  # the two children overlapped
    assert layers.check_op(tracer.spans) == []
    metrics = layers.metrics(tracer.spans, 1, [], {}, 0.0)
    assert metrics["vine.fit_vine.edge_parallelism"] > 1.0


def _names():
    return (bst.boost, bst.fit_pair, vineboost.cli.fit_vine, vineboost.vine.hinv,
            ConditionalVineModel.__dict__["from_json"], ConditionalVineModel.__dict__["sample"])


def test_every_name_is_restored_even_when_the_op_raises():
    before = _names()
    tracer = Tracer()
    with pytest.raises(ZeroDivisionError):
        with tracer.installed():
            assert bst.boost is not before[0]
            assert vineboost.cli.fit_vine is not before[2]
            with tracer.op(0):
                1 / 0
    assert all(a is b for a, b in zip(_names(), before))
    assert tracer.spans and tracer.spans[-1].name == ROOT and tracer.spans[-1].error


def test_traced_fit_records_counts_and_sums_to_root():
    rng = np.random.default_rng(0)
    n = 200
    Z = np.column_stack([np.ones(n), rng.standard_normal((n, 4))])
    pairs = sample_pair(CopulaFamily.GAUSSIAN, 0.5, n, seed=1)
    tracer = Tracer()
    with tracer.installed(), tracer.op(0):
        fit = bst.fit_pair(pairs, Z, FIT_FAMILIES[:2], BoostControl(m_stop=30))
    assert layers.check_op(tracer.spans) == []
    m = layers.metrics(tracer.spans, 1, [], {}, 0.0)
    assert m["boosting.fit_pair.calls"] == 1
    assert m["boosting.stop_aic.calls"] == m["boosting.deselect.calls"] == 2
    assert 2 <= m["boosting.boost.calls"] <= 4  # one first pass per family, at most one refit each
    assert m["boosting.iterations"] == 2 * 30 + m["boosting.refit_iterations"]
    # every iteration takes one gradient; a refit of m_opt steps takes m_opt
    assert m["families.loss_gradient.calls"] == m["boosting.iterations"]
    assert 0.0 <= m["boosting.useful_iter_ratio"] <= 1.0
    assert fit.family in FIT_FAMILIES[:2]
