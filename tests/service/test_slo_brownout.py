"""End-to-end: budget burn drives brownout through the whole service.

A fault burst burns the availability budget → the fast alert fires
within the (simulated) 5-minute window → the SLO engine's recommended
level becomes the admission controller's floor → the brownout event is
logged → good traffic after the window clears restores normal service.
Everything runs on a fake clock injected into the SLO engine, so the
test is deterministic and sleeps for nothing.
"""

from __future__ import annotations

import pytest

from repro.core import LocationServer
from repro.core.api import KNNRequest
from repro.obs import SLOConfig, SLOEngine
from repro.service import (
    AdmissionConfig,
    AdmissionRejectedError,
    QueryService,
    ResilienceConfig,
)

pytestmark = pytest.mark.obs


class FakeClock:
    def __init__(self, t: float = 1000.0):
        self.t = t

    def __call__(self) -> float:
        return self.t

    def advance(self, s: float) -> None:
        self.t += s


class Bogus:
    """An unanswerable request: every answer() raises TypeError."""

    kind = "bogus"
    trace_id = None


@pytest.fixture()
def parts(uniform_1k):
    clock = FakeClock()
    engine = SLOEngine(
        [SLOConfig(name="availability", objective="availability",
                   target=0.9, fast_burn=2.0)],
        clock=clock, eval_interval_s=0.0)
    service = QueryService(
        LocationServer.from_points(uniform_1k),
        resilience=ResilienceConfig(
            admission=AdmissionConfig(max_concurrency=8)),
        slo=engine)
    return service, engine, clock


def _good(service, n: int) -> None:
    for i in range(n):
        service.answer(KNNRequest((0.1 + (i % 8) * 0.1, 0.5), k=2))


def _bad(service, n: int) -> None:
    """Send n failing queries: an unregistered kind fails before the
    gate can shed it, so each is observed as an error."""
    for _ in range(n):
        with pytest.raises((TypeError, AdmissionRejectedError)):
            service.answer(Bogus())


def test_burst_burns_budget_browns_out_and_recovers(parts):
    service, engine, clock = parts

    # Healthy steady state: plenty of good history, no alert.
    _good(service, 400)
    assert engine.recommended_level() == 0
    assert service.admission.slo_level == 0

    # Age the good history out of the fast (5m/1h) windows — it still
    # pads the 3-day budget window, so the budget is not exhausted.
    clock.advance(7200.0)

    # Fault burst: 30% of recent traffic fails → the 5m/1h burn crosses
    # fast_burn (2.0) but stays under 2x, and budget remains — exactly
    # the "reduced" rung.  The floor sheds load even though queue depth
    # never moved.
    _good(service, 70)
    _bad(service, 30)
    assert engine.recommended_level() == 1
    assert service.admission.slo_level == engine.recommended_level()
    snap = engine.snapshot()
    assert snap["slos"]["availability"]["fast_alert"] is True
    assert snap["brownout"] != "normal"
    assert service.admission.snapshot()["slo_level"] == snap["brownout"]

    # The transition was logged as a structured event.
    events = service.events.tail(category="slo")
    assert events and events[0]["event"] == "slo.brownout"
    assert events[0]["previous"] == "normal"

    # Recovery: once the 5-minute window forgets the burst, good
    # traffic clears the fast alert and the floor drops back to normal.
    clock.advance(400.0)
    _good(service, 40)
    assert engine.recommended_level() == 0
    assert service.admission.slo_level == 0
    assert service.admission.snapshot()["slo_level"] == "normal"
    transitions = [(e["previous"], e["level"])
                   for e in service.events.tail(category="slo")]
    assert transitions[0][0] == "normal"       # up from normal ...
    assert transitions[-1][1] == "normal"      # ... and back down


def test_total_outage_escalates_to_reject_and_sheds(parts):
    service, engine, clock = parts
    _bad(service, 30)   # 100% errors: budget gone in every window
    assert engine.recommended_level() == 3
    assert service.admission.slo_level == 3
    # The gate now sheds everything — in microseconds, not via timeout.
    with pytest.raises(AdmissionRejectedError):
        service.answer(KNNRequest((0.5, 0.5), k=1))


def test_admission_sheds_are_not_slo_symptoms(parts):
    """Rejected queries must not count as bad, or brownout locks in."""
    service, engine, clock = parts
    _bad(service, 30)
    assert engine.recommended_level() == 3
    before = engine.snapshot()["slos"]["availability"]["observed"]
    for _ in range(20):
        with pytest.raises(AdmissionRejectedError):
            service.answer(KNNRequest((0.5, 0.5), k=1))
    after = engine.snapshot()["slos"]["availability"]["observed"]
    assert after == before  # sheds are mitigation, not symptom

    # ... which is exactly what lets the windows drain and service heal.
    clock.advance(400.0)
    engine.evaluate()
    assert engine.recommended_level() == 0


def test_slo_section_in_stats_snapshot(parts):
    service, engine, clock = parts
    _good(service, 5)
    snap = service.stats_snapshot()
    assert snap["slo"]["brownout"] == "normal"
    assert "availability" in snap["slo"]["slos"]
