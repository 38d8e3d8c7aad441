import pytest

from bench.timing import SegmentTimer, normalise, quartiles, relative_iqr


def test_normalise_scales_by_the_mean_probe():
    assert normalise(2.0, 0.05, 0.05, ref_s=0.05) == pytest.approx(2.0)
    # Host twice as slow around the segment: half the raw time.
    assert normalise(2.0, 0.1, 0.1, ref_s=0.05) == pytest.approx(1.0)
    assert normalise(3.0, 0.04, 0.08, ref_s=0.03) == pytest.approx(1.5)


class FakeHost:
    """A clock that advances only when an op or probe says so."""

    def __init__(self, probes):
        self.now = 0.0
        self.probes = list(probes)

    def clock(self):
        return self.now

    def probe(self):
        return self.probes.pop(0)

    def op(self, seconds):
        def run():
            self.now += seconds
            return seconds
        return run


def test_segments_batch_short_ops_and_normalise_each():
    host = FakeHost([0.05, 0.10, 0.04])
    timer = SegmentTimer(min_segment_s=0.5, measure_probe=host.probe,
                         clock=host.clock, ref_s=0.05)
    timer.run("a", host.op(0.2))
    timer.run("b", host.op(0.2))
    assert timer.norm == {}  # segment still open at 0.4 s
    timer.run("c", host.op(0.3))  # closes the first segment
    timer.run("a", host.op(0.6))  # long op: a segment of its own
    assert timer.probes == [0.05, 0.10, 0.04]
    factor_1 = 0.05 / 0.075
    factor_2 = 0.05 / 0.07
    assert timer.raw == {"a": pytest.approx([0.2, 0.6]), "b": pytest.approx([0.2]),
                         "c": pytest.approx([0.3])}
    assert timer.norm["a"] == pytest.approx([0.2 * factor_1, 0.6 * factor_2])
    assert timer.norm["c"] == pytest.approx([0.3 * factor_1])
    assert timer.median_norm_s()["a"] == pytest.approx(
        (0.2 * factor_1 + 0.6 * factor_2) / 2)


def test_a_failing_op_is_still_timed():
    host = FakeHost([0.05, 0.05])
    timer = SegmentTimer(min_segment_s=0.0, measure_probe=host.probe,
                         clock=host.clock, ref_s=0.05)

    def fail():
        host.now += 0.25
        raise RuntimeError("boom")

    with pytest.raises(RuntimeError):
        timer.run("x", fail)
    assert timer.norm["x"] == pytest.approx([0.25])


def test_spread_matches_statistics_quantiles():
    values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
    q1, median, q3 = quartiles(values)
    assert (q1, median, q3) == (2.75, 5.5, 8.25)
    assert relative_iqr(values) == pytest.approx(5.5 / 5.5)
    assert relative_iqr([4.0]) == 0.0
