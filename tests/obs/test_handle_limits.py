"""Observability memory bounds: HandleLimits rings."""

from __future__ import annotations

import pytest

from repro.obs import HandleLimits, Observability


class TestHandleLimits:
    def test_limits_shape_the_rings(self):
        obs = Observability(
            handle_limits=HandleLimits(max_spans=4, event_capacity=2)
        )
        assert obs.trace.capacity == 4
        assert obs.events.capacity == 2
        for i in range(10):
            obs.instant(f"e{i}")
            obs.machine_event(0, i, "send", "x")
        assert len(obs.trace) == 4 and obs.trace.dropped == 6
        assert obs.events.count() == 2 and obs.events.dropped == 8

    def test_legacy_kwargs_still_work(self):
        obs = Observability(max_spans=8, event_capacity=3)
        assert obs.trace.capacity == 8 and obs.events.capacity == 3
        assert obs.limits.max_spans == 8

    @pytest.mark.parametrize(
        "kwargs",
        [dict(max_spans=0), dict(event_capacity=0), dict(max_spans=-1)],
    )
    def test_invalid_limits_rejected(self, kwargs):
        with pytest.raises(ValueError):
            HandleLimits(**kwargs)
