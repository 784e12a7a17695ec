"""The untraced hot path: ``maybe_span`` without a tracer is one shared
no-op context."""

from repro.trace.span import maybe_span


def test_untraced_calls_share_one_context_that_yields_none():
    first = maybe_span(None, "KEYPUSH.recv", now=1.0, kind="push", peer="p")
    second = maybe_span(None, "JOIN.serve", now=2.0)
    assert first is second
    with first as span:
        assert span is None
    with second as span:
        assert span is None
