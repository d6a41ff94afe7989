import statistics

import pytest

from perfbench import reference, stats


def test_summary():
    values = [5.0, 1.0, 3.0, 2.0, 4.0]
    assert stats.summary(values) == {
        "samples": 5, "min": 1.0, "median": 3.0, "q1": 1.5, "q3": 4.5}
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert (q1, q3) == (1.5, 4.5)
    assert stats.summary([2.0]) == {"samples": 1, "min": 2.0, "median": 2.0}
    many = stats.summary([float(x) for x in range(1, 21)])
    assert many["median"] == 10.5
    assert (many["tail_percentile"], many["tail"]) == (50, 10.0)


@pytest.mark.parametrize("n, expected", [
    (1, None), (10, None),
    (11, None),                 # p50 is rank 6, leaving only 5 beyond
    (20, (50, 10)),             # rank 10 leaves exactly 10 beyond
    (40, (75, 30)),
    (100, (90, 90)),
    (199, (90, 180)),           # p95 is rank 190, leaving 9
    (200, (95, 190)),
    (1000, (99, 990)),
    (10000, (99.9, 9990)),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    values = list(range(n, 0, -1))          # unsorted on purpose
    assert stats.tail_percentile(values) == expected
    if expected is not None:
        assert sum(v > expected[1] for v in values) >= 10


def test_vertex_excess_ratio():
    assert stats.min_crystallization_vertices(2, 3) == 22
    assert stats.min_crystallization_vertices(3, 3) == 42
    assert stats.vertex_excess_ratio([((2, 3), 22), ((3, 3), 42)]) == 1.0
    assert stats.vertex_excess_ratio(
        [((2, 3), 24), ((3, 3), 46)]) == pytest.approx(70 / 64)
    assert stats.vertex_excess_ratio([]) == 1.0


def test_reference_chunk_and_scaling():
    assert reference.chunk() > 0
    ref = reference.REF_SECONDS
    assert reference.normalized(3.0, ref, ref) == pytest.approx(3.0)
    # a machine running the reference at half speed halves the job's time
    assert reference.normalized(3.0, 2 * ref, 2 * ref) == pytest.approx(1.5)
    assert reference.normalized(3.0, ref, 3 * ref) == pytest.approx(1.5)
