import pytest

from timing import nearest_rank, op_seconds, summarize, tail_percentile


@pytest.mark.parametrize(
    "n, want",
    [(1, None), (19, None), (20, 50), (39, 50), (40, 75), (99, 75), (100, 90), (199, 90),
     (200, 95), (999, 95), (1000, 99), (10000, 99.9)],
)
def test_tail_percentile_needs_ten_samples_beyond(n, want):
    samples = [float(i) for i in range(n)]
    tail = tail_percentile(samples)
    assert (tail[0] if tail else None) == want
    if tail:
        assert sum(s > tail[1] for s in samples) >= 10


def test_tail_percentile_counts_only_samples_strictly_above():
    # 30 equal samples: the median ties with everything, nothing lies beyond it
    assert tail_percentile([1.0] * 30) is None
    samples = [1.0] * 20 + [2.0] * 10
    assert tail_percentile(samples) == (50, 1.0)


def test_nearest_rank_and_summary():
    assert nearest_rank([3.0, 1.0, 2.0], 50) == 2.0
    assert nearest_rank([3.0, 1.0, 2.0], 100) == 3.0
    s = summarize([1.0, 2.0, 3.0, 4.0])
    assert s == {"median": 2.5, "count": 4, "tail": None}


def test_op_seconds_weights_every_input_once():
    # inputs 0 and 1 cost 1 s, input 2 costs 4 s; a run that reached input 2
    # twice must not read slower than one that reached it once
    assert op_seconds([1.0, 1.0, 4.0, 1.0, 1.0], 3) == 2.0
    assert op_seconds([1.0, 1.0, 4.0, 1.0, 1.0, 4.0], 3) == 2.0
    assert op_seconds([3.0, 1.0, 2.0], 1) == 2.0
    with pytest.raises(ValueError):
        op_seconds([1.0, 1.0], 3)
