"""Tests for week-trace generation and feedback sampling."""

import random

import pytest

from repro.workload.traces import (
    OP_JOIN,
    OP_LOGIN,
    OP_RENEW,
    OP_SWITCH,
    FeedbackLogSampler,
    WeekTraceGenerator,
)


@pytest.fixture(scope="module")
def trace():
    generator = WeekTraceGenerator(
        rng=random.Random(7),
        peak_concurrent=60,
        n_channels=20,
        horizon=2 * 86400.0,  # two days is enough structure for tests
    )
    return generator.generate()


class TestTraceStructure:
    def test_events_time_ordered(self, trace):
        times = [e.time for e in trace.events]
        assert times == sorted(times)

    def test_every_session_starts_with_login(self, trace):
        first_event = {}
        for event in trace.events:
            first_event.setdefault(event.session_id, event.op)
        assert set(first_event.values()) == {OP_LOGIN}

    def test_every_switch_has_matching_join(self, trace):
        assert trace.count_of(OP_SWITCH) == trace.count_of(OP_JOIN)

    def test_all_ops_present(self, trace):
        for op in (OP_LOGIN, OP_SWITCH, OP_JOIN, OP_RENEW):
            assert trace.count_of(op) > 0, op

    def test_events_within_horizon(self, trace):
        assert all(0.0 <= e.time <= 2 * 86400.0 for e in trace.events)

    def test_channels_assigned_to_switches(self, trace):
        switches = trace.events_of(OP_SWITCH)
        assert all(e.channel for e in switches)

    def test_renewals_spaced_by_ticket_lifetime(self, trace):
        """Renewal cadence follows the channel-ticket lifetime."""
        by_session = {}
        for event in trace.events:
            if event.op == OP_RENEW:
                by_session.setdefault(event.session_id, []).append(event.time)
        gaps = [
            b - a
            for times in by_session.values()
            for a, b in zip(times, times[1:])
        ]
        if gaps:  # sessions long enough for 2+ renewals
            assert min(gaps) >= 900.0 * 0.9


class TestConcurrency:
    def test_concurrent_at_consistent_with_sessions(self, trace):
        probe = 20 * 3600.0  # evening of day one
        manual = sum(1 for s, e in trace.sessions if s <= probe < e)
        # concurrent_at uses <=; allow off-by-boundary wiggle.
        assert abs(trace.concurrent_at(probe) - manual) <= 2

    def test_diurnal_shape_visible(self, trace):
        evening = trace.concurrent_at(20.5 * 3600.0)
        night = trace.concurrent_at(4 * 3600.0)
        assert evening > night * 2

    def test_peak_magnitude_near_target(self, trace):
        horizon = max(end for _, end in trace.sessions)
        peak = max(trace.concurrent_at(t * 900.0) for t in range(int(horizon // 900.0) + 1))
        assert 30 <= peak <= 100  # target 60, stochastic


class TestDeterminism:
    def test_same_seed_same_trace(self):
        def build():
            return WeekTraceGenerator(
                rng=random.Random(9), peak_concurrent=30, n_channels=5,
                horizon=86400.0,
            ).generate()

        a, b = build(), build()
        assert a.events == b.events
        assert a.sessions == b.sessions


class TestFeedbackSampler:
    def test_sample_is_subset_by_session(self, trace):
        sampler = FeedbackLogSampler(random.Random(1), submit_prob=0.2)
        sampled = sampler.sample(trace)
        sampled_sessions = {e.session_id for e in sampled}
        for event in trace.events:
            if event.session_id in sampled_sessions:
                assert event in sampled or event.session_id in sampled_sessions
        assert len(sampled) < len(trace.events)

    def test_whole_sessions_included(self, trace):
        """Submission includes all of a session's events, not a slice."""
        sampler = FeedbackLogSampler(random.Random(2), submit_prob=0.3)
        sampled = sampler.sample(trace)
        sampled_sessions = {e.session_id for e in sampled}
        full_counts = {}
        for event in trace.events:
            full_counts[event.session_id] = full_counts.get(event.session_id, 0) + 1
        sample_counts = {}
        for event in sampled:
            sample_counts[event.session_id] = sample_counts.get(event.session_id, 0) + 1
        for session_id in sampled_sessions:
            assert sample_counts[session_id] == full_counts[session_id]

    def test_probability_bounds(self):
        with pytest.raises(ValueError):
            FeedbackLogSampler(random.Random(1), submit_prob=0.0)
        with pytest.raises(ValueError):
            FeedbackLogSampler(random.Random(1), submit_prob=1.5)

    def test_full_probability_samples_everything(self, trace):
        sampler = FeedbackLogSampler(random.Random(3), submit_prob=1.0)
        assert len(sampler.sample(trace)) == len(trace.events)

    def test_sample_representative_of_population(self, trace):
        """The paper validated that opt-in logs represent the
        population; our synthetic equivalent should too: op mix in the
        sample tracks the full trace within a few percent."""
        sampler = FeedbackLogSampler(random.Random(4), submit_prob=0.3)
        sampled = sampler.sample(trace)
        full_ratio = trace.count_of(OP_SWITCH) / max(1, len(trace.events))
        sample_ratio = sum(1 for e in sampled if e.op == OP_SWITCH) / max(1, len(sampled))
        assert abs(full_ratio - sample_ratio) < 0.05
