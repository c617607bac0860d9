"""The windowed telemetry view the detectors poll: window_snapshot
delta semantics, the window-reader helpers, and the cache seams the
actuator relies on for transactional rollback."""

from repro.control import counter_sum, gauge_value, histogram_window
from repro.serving.cache import ScenarioCache
from repro.telemetry.metrics import MetricsRegistry, snapshot_delta


def _registry():
    reg = MetricsRegistry()

    def counter(kind):
        return reg.counter("requests_total", "requests",
                           labels={"kind": kind})

    hist = reg.histogram("latency_seconds", "latency",
                         buckets=(0.1, 0.5, 1.0))
    gauge = reg.gauge("active", "active")
    return reg, counter, hist, gauge


class TestWindowSnapshot:
    def test_first_window_is_full_snapshot(self):
        reg, counter, hist, gauge = _registry()
        counter("a").inc(3)
        window = reg.window_snapshot()
        assert counter_sum(window, "requests_total") == 3.0

    def test_second_window_is_a_delta(self):
        reg, counter, hist, gauge = _registry()
        counter("a").inc(3)
        reg.window_snapshot()
        counter("a").inc(2)
        window = reg.window_snapshot()
        assert counter_sum(window, "requests_total") == 2.0

    def test_empty_window_shows_zero_rates(self):
        reg, counter, hist, gauge = _registry()
        counter("a").inc(5)
        hist.observe(0.2)
        reg.window_snapshot()
        window = reg.window_snapshot()
        assert counter_sum(window, "requests_total") == 0.0
        assert histogram_window(window, "latency_seconds").count == 0

    def test_gauges_report_level_not_flow(self):
        reg, counter, hist, gauge = _registry()
        gauge.set(7.0)
        reg.window_snapshot()
        window = reg.window_snapshot()
        assert gauge_value(window, "active") == 7.0

    def test_histogram_window_quantiles_are_windowed(self):
        reg, counter, hist, gauge = _registry()
        # First window: all fast observations.
        for _ in range(20):
            hist.observe(0.05)
        reg.window_snapshot()
        # Second window: all slow — lifetime p95 would still look
        # fast-ish, the windowed p95 must not.
        for _ in range(20):
            hist.observe(0.9)
        view = histogram_window(reg.window_snapshot(),
                                "latency_seconds")
        assert view.count == 20
        assert view.p95 > 0.5
        assert view.mean > 0.5

    def test_counter_sum_filters_by_labels(self):
        reg, counter, hist, gauge = _registry()
        counter("a").inc(3)
        counter("b").inc(4)
        window = reg.window_snapshot()
        assert counter_sum(window, "requests_total") == 7.0
        assert counter_sum(window, "requests_total",
                           labels={"kind": "a"}) == 3.0

    def test_missing_metric_reads_as_empty(self):
        reg, *_ = _registry()
        window = reg.window_snapshot()
        assert counter_sum(window, "no_such_metric") == 0.0
        assert gauge_value(window, "no_such_metric") is None
        assert histogram_window(window, "no_such_metric") is None

    def test_snapshot_delta_none_before_is_identity(self):
        reg, counter, hist, gauge = _registry()
        counter("a").inc(2)
        snap = reg.snapshot()
        delta = snapshot_delta(None, snap)
        assert counter_sum(delta, "requests_total") == 2.0

    def test_registry_reset_mid_window_clamps_to_zero(self):
        reg, counter, hist, gauge = _registry()
        counter("a").inc(9)
        reg.window_snapshot()
        reg.reset()
        counter("a").inc(1)
        window = reg.window_snapshot()
        # Shrinking counters never report a negative rate.
        assert counter_sum(window, "requests_total") >= 0.0


class TestCacheSeams:
    def test_resize_evicts_lru_down_to_bound(self):
        cache = ScenarioCache(maxsize=8)
        for i in range(6):
            cache.put(f"k{i}", i)
        evicted = cache.resize(2)
        assert evicted == 4
        assert cache.maxsize == 2
        assert len(cache) == 2
        assert cache.get("k5") == 5
        assert cache.get("k0") is None

    def test_resize_up_keeps_entries(self):
        cache = ScenarioCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.resize(64) == 0
        assert cache.maxsize == 64
        assert cache.get("a") == 1

    def test_snapshot_restore_round_trip(self):
        cache = ScenarioCache(maxsize=4)
        cache.put("a", 1)
        cache.put("b", 2)
        entries = cache.snapshot_entries()
        cache.clear()
        assert cache.get("a") is None
        cache.restore_entries(entries)
        assert cache.get("a") == 1
        assert cache.get("b") == 2

    def test_snapshot_is_isolated_from_later_puts(self):
        cache = ScenarioCache(maxsize=4)
        cache.put("a", 1)
        entries = cache.snapshot_entries()
        cache.put("z", 26)
        assert "z" not in entries
