"""Metrics registry: concurrency exactness, histograms, exposition."""

from __future__ import annotations

import threading

import pytest

from repro import obs
from repro.obs import metrics as metrics_mod
from repro.obs.metrics import MetricsRegistry, default_registry


class TestCounterConcurrency:
    def test_four_thread_hammer_is_exact(self):
        """Concurrent inc() must not lose a single increment."""
        registry = MetricsRegistry()
        counter = registry.counter("hits", "hammered", ("worker",))
        per_thread = 5000

        def hammer(worker: int) -> None:
            for _ in range(per_thread):
                counter.inc(worker=worker)

        threads = [threading.Thread(target=hammer, args=(w,))
                   for w in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for worker in range(4):
            assert counter.value(worker=worker) == per_thread
        assert counter.total() == 4 * per_thread
        # read-back: one sample per label combination, keyed by value
        samples = counter.samples()
        assert samples == {(str(w),): per_thread for w in range(4)}
        samples.clear()  # a copy: the counter keeps its values
        assert counter.total() == 4 * per_thread

    def test_histogram_hammer_is_exact(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lat", "hammered", buckets=(0.5, 1.0))
        per_thread = 2000

        def hammer() -> None:
            for index in range(per_thread):
                hist.observe(0.25 if index % 2 else 0.75)

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert hist.snapshot()["count"] == 4 * per_thread
        assert hist.series() == {(): {"count": 4 * per_thread,
                                      "sum": 2 * per_thread,
                                      "min": 0.25, "max": 0.75}}


class TestCounter:
    def test_negative_increment_rejected(self):
        counter = MetricsRegistry().counter("c")
        with pytest.raises(ValueError, match="only go up"):
            counter.inc(-1)

    def test_label_set_must_match_declaration(self):
        counter = MetricsRegistry().counter("c", labelnames=("tenant",))
        with pytest.raises(ValueError, match="labels"):
            counter.inc()
        with pytest.raises(ValueError, match="labels"):
            counter.inc(tenant="a", extra="b")

    def test_collect_renders_sorted_samples(self):
        counter = MetricsRegistry().counter("jobs", "help text",
                                            ("tenant",))
        counter.inc(2, tenant="bob")
        counter.inc(tenant="alice")
        assert counter.collect() == [
            "# HELP jobs help text",
            "# TYPE jobs counter",
            'jobs{tenant="alice"} 1',
            'jobs{tenant="bob"} 2',
        ]


    def test_bound_child_shares_the_sample_and_its_checks(self):
        counter = MetricsRegistry().counter("c", labelnames=("tenant",))
        alice = counter.bind(tenant="alice")
        assert counter.samples() == {}  # binding records nothing
        alice()
        counter.inc(2, tenant="alice")
        alice(3)
        assert counter.samples() == {("alice",): 6.0}
        with pytest.raises(ValueError, match="only go up"):
            alice(-1)
        with pytest.raises(ValueError, match="labels"):
            counter.bind(tenant="a", extra="b")


class TestGauge:
    def test_set_add_value(self):
        gauge = MetricsRegistry().gauge("depth")
        gauge.set(3)
        gauge.add(2.5)
        assert gauge.value() == 5.5
        assert 'depth 5.5' in gauge.collect()[-1]

    def test_read_gauge_reports_live_state(self):
        """A ``read`` gauge copies nothing: every collect reads the
        source, which may read other instruments of the same registry
        (it runs outside the registry lock)."""
        registry = MetricsRegistry()
        hist = registry.histogram("lat", "", ("tenant",))
        depth = [1]
        gauge = registry.gauge("depth", read=lambda: {(): depth[0]})
        registry.gauge("worst", "", ("tenant",), read=lambda: {
            key: series["max"] for key, series in hist.series().items()})
        depth[0] = 4
        hist.observe(0.5, tenant="a")
        assert gauge.value() == 4
        text = registry.render_text()
        assert "depth 4\n" in text and 'worst{tenant="a"} 0.5\n' in text


class TestHistogram:
    def test_bucket_placement_and_cumulative_export(self):
        """Samples land in the right bucket; export is cumulative."""
        hist = MetricsRegistry().histogram("lat", "", (),
                                           buckets=(0.001, 0.01, 0.1))
        for value in (0.0005, 0.005, 0.05, 0.5):
            hist.observe(value)
        lines = hist.collect()
        assert 'lat_bucket{le="0.001"} 1' in lines
        assert 'lat_bucket{le="0.01"} 2' in lines
        assert 'lat_bucket{le="0.1"} 3' in lines
        assert 'lat_bucket{le="+Inf"} 4' in lines
        assert 'lat_count 4' in lines
        assert any(line.startswith("lat_sum ") for line in lines)

    def test_boundary_value_lands_in_its_bucket(self):
        # bisect_left: a sample equal to an upper bound belongs to it.
        hist = MetricsRegistry().histogram("h", "", (), buckets=(1.0, 2.0))
        hist.observe(1.0)
        assert 'h_bucket{le="1"} 1' in hist.collect()

    def test_quantiles_interpolate_within_units(self):
        """Uniform seconds-scale samples: quantiles in the right decade."""
        hist = MetricsRegistry().histogram("lat")
        samples = [i / 1000.0 for i in range(1, 101)]  # 1ms .. 100ms
        for value in samples:
            hist.observe(value)
        snap = hist.snapshot()
        assert snap["count"] == 100
        assert snap["min"] == pytest.approx(0.001)
        assert snap["max"] == pytest.approx(0.100)
        assert 0.02 <= snap["p50"] <= 0.08
        assert 0.05 <= snap["p90"] <= 0.100
        assert snap["p99"] <= 0.100
        assert hist.quantile(1.0) == pytest.approx(0.100)
        assert hist.quantile(0.0) == pytest.approx(0.001)

    def test_empty_snapshot_and_quantile(self):
        hist = MetricsRegistry().histogram("lat")
        assert hist.snapshot()["count"] == 0
        assert hist.snapshot()["p50"] is None
        assert hist.quantile(0.5) is None
        with pytest.raises(ValueError, match="quantile"):
            hist.quantile(1.5)

    def test_buckets_must_be_finite_and_nonempty(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError, match="at least one"):
            registry.histogram("empty", buckets=())
        with pytest.raises(ValueError, match="finite"):
            registry.histogram("inf", buckets=(1.0, float("inf")))


class TestRegistry:
    def test_idempotent_registration_returns_same_instrument(self):
        registry = MetricsRegistry()
        first = registry.counter("c", "help", ("a",))
        again = registry.counter("c", "other help", ("a",))
        assert first is again

    def test_conflicting_registration_fails_loudly(self):
        registry = MetricsRegistry()
        registry.counter("c", labelnames=("a",))
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("c")
        with pytest.raises(ValueError, match="already registered"):
            registry.counter("c", labelnames=("b",))

    def test_render_text_sorts_and_escapes(self):
        registry = MetricsRegistry()
        registry.counter("z_last").inc()
        counter = registry.counter("a_first", 'say "hi"\n', ("label",))
        counter.inc(label='quo"te\\path\nline')
        text = registry.render_text()
        assert text.index("a_first") < text.index("z_last")
        assert r"say \"hi\"\n" in text
        assert r'label="quo\"te\\path\nline"' in text
        assert registry.names() == ["a_first", "z_last"]
        assert registry.get("a_first") is counter
        assert registry.get("missing") is None

    def test_render_text_empty_registry(self):
        assert MetricsRegistry().render_text() == ""

    def test_reset_clears_samples_keeps_registrations(self):
        registry = MetricsRegistry()
        counter = registry.counter("c")
        gauge = registry.gauge("g")
        hist = registry.histogram("h")
        counter.inc()
        gauge.set(2)
        hist.observe(0.5)
        registry.reset()
        assert counter.value() == 0
        assert gauge.value() == 0
        assert hist.snapshot()["count"] == 0
        assert registry.names() == ["c", "g", "h"]

    def test_integer_formatting_drops_the_dot(self):
        assert metrics_mod._format_number(3.0) == "3"
        assert metrics_mod._format_number(float("inf")) == "+Inf"
        assert metrics_mod._format_number(0.25) == "0.25"


class TestGatedFastPath:
    def test_disabled_instruments_record_nothing(self, obs_disabled):
        """The gated registry is a no-op until obs.enable()."""
        gated = default_registry()
        counter = gated.counter("test_gated_counter")
        gauge = gated.gauge("test_gated_gauge")
        hist = gated.histogram("test_gated_hist")
        counter.inc(5)
        gauge.set(7)
        gauge.add(1)
        hist.observe(0.5)
        assert counter.value() == 0
        assert gauge.value() == 0
        assert hist.snapshot()["count"] == 0

    def test_enable_flips_the_gate(self, obs_disabled):
        gated = default_registry()
        counter = gated.counter("test_gated_counter")
        before = counter.value()
        obs.enable()
        assert obs.enabled()
        counter.inc()
        obs.disable()
        counter.inc()  # gate closed again: dropped
        assert not obs.enabled()
        assert counter.value() == before + 1

    def test_bound_child_honours_the_gate(self, obs_disabled):
        counter = default_registry().counter("test_gated_bound",
                                             labelnames=("k",))
        bound = counter.bind(k="x")
        bound()  # gate closed: dropped
        obs.enable()
        bound(2)
        obs.disable()
        assert counter.value(k="x") == 2

    def test_always_on_registry_ignores_the_gate(self, obs_disabled):
        counter = MetricsRegistry().counter("c")
        counter.inc()
        assert counter.value() == 1
