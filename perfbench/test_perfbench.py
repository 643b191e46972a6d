"""Tests for the benchmark's own arithmetic and tracing.

Run from the repository root: ``python -m pytest perfbench``.
"""

import statistics
import sys
import types

import pytest

from bench_stats import (
    Checks,
    failed_share,
    median,
    percentile,
    quartile_spread,
    samples_beyond,
)
from bench_trace import (
    Target,
    Tracer,
    inclusive_times,
    installed,
    self_times,
    traced_iter,
)
from run import peak_rss_mb, reset_peak_rss


class TestSelfTimes:
    def test_leaf_spans_keep_their_duration(self):
        spans = [("a", 0.0, 2.0, -1), ("b", 3.0, 4.5, -1)]
        assert self_times(spans) == {"a": 2.0, "b": 1.5}

    def test_children_are_subtracted_from_their_parent_only(self):
        spans = [
            ("root", 0.0, 10.0, -1),
            ("mid", 1.0, 7.0, 0),
            ("leaf", 2.0, 5.0, 1),
            ("leaf", 8.0, 9.0, 0),
        ]
        own = self_times(spans)
        assert own["root"] == pytest.approx(10.0 - 6.0 - 1.0)
        assert own["mid"] == pytest.approx(6.0 - 3.0)
        assert own["leaf"] == pytest.approx(3.0 + 1.0)
        # self times of one tree add up to the root's duration
        assert sum(own.values()) == pytest.approx(10.0)

    def test_inclusive_times_count_children(self):
        spans = [("root", 0.0, 10.0, -1), ("leaf", 2.0, 5.0, 0)]
        assert inclusive_times(spans) == {"root": 10.0, "leaf": 3.0}

    def test_no_spans(self):
        assert self_times([]) == {}


class TestPercentile:
    def test_interpolates_and_returns_count(self):
        assert percentile([1.0, 2.0, 3.0, 4.0], 50) == (2.5, 4)
        assert percentile([4.0, 1.0, 3.0, 2.0], 90) == (pytest.approx(3.7), 4)

    def test_extremes(self):
        values = [5.0, 1.0, 9.0]
        assert percentile(values, 0) == (1.0, 3)
        assert percentile(values, 100) == (9.0, 3)
        assert percentile([7.0], 90) == (7.0, 1)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile([1.0], 101)

    def test_samples_beyond(self):
        assert samples_beyond(100, 90) == pytest.approx(10.0)
        assert samples_beyond(36, 90) < 10


class TestShares:
    def test_failed_share(self):
        assert failed_share(0, 12) == 0.0
        assert failed_share(3, 12) == 0.25

    def test_checks_tally_feeds_failed_share(self):
        checks = Checks()
        for ok in (True, False, True, True):
            checks.expect(ok, f"check {ok}")
        assert (checks.attempted, checks.failed) == (4, 1)
        assert checks.failures == ["check False"]
        assert failed_share(checks.failed, checks.attempted) == 0.25

    def test_failed_share_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            failed_share(0, 0)
        with pytest.raises(ValueError):
            failed_share(5, 4)

    def test_quartile_spread_matches_statistics(self):
        values = [10.0, 11.0, 9.0, 10.5, 9.5, 12.0, 10.0, 8.0, 10.2, 9.9]
        q1, _, q3 = statistics.quantiles(values, n=4)
        assert quartile_spread(values) == pytest.approx(
            (q3 - q1) / statistics.median(values)
        )
        assert quartile_spread([3.0, 3.0, 3.0]) == 0.0

    def test_median(self):
        assert median([3.0, 1.0, 2.0]) == 2.0
        with pytest.raises(ValueError):
            median([])


@pytest.fixture
def fake_module(monkeypatch):
    """A throwaway module with a function, a class and a generator."""
    mod = types.ModuleType("perfbench_fake")

    def work(x):
        return [x] * x

    def gen(n):
        yield from range(n)

    class Thing:
        def step(self, x):
            return mod.work(x)

        @classmethod
        def build(cls, x):
            return cls()

        def consume(self, items):
            return sum(items)

    mod.work, mod.gen, mod.Thing = work, gen, Thing
    monkeypatch.setitem(sys.modules, "perfbench_fake", mod)
    return mod


class TestInstalled:
    def test_wraps_and_restores(self, fake_module):
        tracer = Tracer()
        original = fake_module.work
        targets = [
            Target(
                "fake.work",
                "perfbench_fake",
                "work",
                count=lambda a, r, b: {"fake.items": len(r)},
            ),
            Target("fake.step", "perfbench_fake", "Thing.step"),
            Target("fake.build", "perfbench_fake", "Thing.build"),
        ]
        with installed(tracer, targets):
            thing = fake_module.Thing.build(1)
            assert isinstance(thing, fake_module.Thing)
            assert thing.step(3) == [3, 3, 3]
        assert fake_module.work is original
        assert [s[0] for s in tracer.spans] == [
            "fake.build",
            "fake.step",
            "fake.work",
        ]
        # Thing.step looks ``work`` up on the module, so it nests
        assert tracer.spans[2][3] == 1
        assert tracer.counts["fake.items"] == 3
        assert not tracer.missing

    def test_missing_targets_are_reported_not_raised(self, fake_module):
        tracer = Tracer()
        targets = [
            Target("gone", "perfbench_fake", "Thing.renamed"),
            Target("gone", "perfbench_no_such_module", "f"),
            Target("gone", "perfbench_fake", "Thing.consume", iterate="xs"),
        ]
        with installed(tracer, targets):
            assert fake_module.Thing().consume([1, 2]) == 3
        assert tracer.missing == {
            "perfbench_fake:Thing.renamed",
            "perfbench_no_such_module:f",
            "perfbench_fake:Thing.consume",
        }

    def test_broken_count_hook_is_reported(self, fake_module):
        tracer = Tracer()
        target = Target(
            "fake.work", "perfbench_fake", "work", count=lambda a, r, b: r.nope
        )
        with installed(tracer, [target]):
            assert fake_module.work(2) == [2, 2]
        assert tracer.missing == {"perfbench_fake:work (count)"}

    def test_generators_and_iterated_arguments(self, fake_module):
        tracer = Tracer()
        targets = [
            Target("fake.gen", "perfbench_fake", "gen"),
            Target("fake.next", "perfbench_fake", "Thing.consume", iterate="items"),
        ]
        with installed(tracer, targets):
            assert list(fake_module.gen(3)) == [0, 1, 2]
            assert fake_module.Thing().consume(iter([4, 5])) == 9
        names = [s[0] for s in tracer.spans]
        # one span per next(), the exhausting call included
        assert names.count("fake.gen") == 4
        assert names.count("fake.next") == 3


def test_traced_iter_closes_spans_on_error():
    tracer = Tracer()

    def boom():
        yield 1
        raise RuntimeError("boom")

    it = traced_iter(tracer, "x", boom())
    assert next(it) == 1
    with pytest.raises(RuntimeError):
        next(it)
    assert len(tracer.spans) == 2
    assert all(end >= start for _, start, end, _ in tracer.spans)
    # the stack unwound: a new span is a root again
    assert tracer.spans[tracer.begin("y")][3] == -1


def test_peak_rss_is_reset_to_current_use():
    reset_peak_rss()
    base = peak_rss_mb()
    block = b"\x01" * (64 << 20)  # written, so resident
    high = peak_rss_mb()
    del block
    reset_peak_rss()
    low = peak_rss_mb()
    assert high >= base + 60
    assert low <= high - 60
