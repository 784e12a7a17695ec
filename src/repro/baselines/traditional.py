"""Traditional per-file DRM baseline: License Manager provisioning.

Section I: "In traditional DRM, each client is required to acquire a
separate playback license for each file.  The acquisition of playback
license usually occurs right before the playing back of a file."  For
a live event with correlated arrivals this concentrates the entire
audience's license acquisitions into the event's first moments, so the
License Manager must be provisioned for the flash-crowd peak, not the
average.

:class:`TraditionalDrmSimulation` runs a flash crowd through a
License Manager service station to measure the queueing delay a given
provisioning level produces -- the baseline curve for ablation A3.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List

from repro.sim.engine import Simulator
from repro.sim.station import ServiceStation


@dataclass
class FlashCrowdResult:
    """Outcome of one flash-crowd provisioning experiment."""

    arrivals: int
    n_servers: int
    mean_wait: float
    p95_wait: float
    max_wait: float
    served_within_sla: float  # fraction served within the SLA bound


class TraditionalDrmSimulation:
    """Queueing behaviour of playback-time licensing under a flash crowd.

    All ``arrivals`` clients request a license within ``window``
    seconds of the event start (front-loaded).  The License Manager is
    an ``n_servers``-wide station with per-request service time
    ``service_time`` (dominated by the license signature).  This is
    the system the paper rules out "due to scalability and reliability
    concern"; the measured waits show why.
    """

    def __init__(
        self,
        rng: random.Random,
        service_time: float = 0.004,
        sla: float = 3.0,
    ) -> None:
        self._rng = rng
        self.service_time = service_time
        self.sla = sla

    def run(self, arrivals: int, n_servers: int, window: float = 120.0) -> FlashCrowdResult:
        """Simulate one flash crowd; returns wait-time statistics."""
        sim = Simulator()
        station = ServiceStation(
            sim,
            n_servers=n_servers,
            mean_service_time=self.service_time,
            rng=self._rng,
            name="license-manager",
        )
        waits: List[float] = []
        times = sorted(
            self._rng.expovariate(3.0 / window) for _ in range(arrivals)
        )
        for t in times:
            sim.schedule_at(
                t,
                lambda s, st=station: st.submit(
                    on_complete=lambda _s, sojourn: waits.append(sojourn)
                ),
            )
        sim.run()
        waits.sort()
        n = len(waits)
        return FlashCrowdResult(
            arrivals=arrivals,
            n_servers=n_servers,
            mean_wait=sum(waits) / n if n else 0.0,
            p95_wait=waits[int(0.95 * (n - 1))] if n else 0.0,
            max_wait=waits[-1] if n else 0.0,
            served_within_sla=(sum(1 for w in waits if w <= self.sla) / n) if n else 0.0,
        )

    def provisioning_needed(self, arrivals: int, window: float, sla_fraction: float = 0.95) -> int:
        """Smallest server count meeting the SLA for a flash crowd.

        Doubling search then binary refinement; this is the "peak-load
        provisioning" number the paper's architecture avoids paying.
        """
        low, high = 1, 1
        while self.run(arrivals, high, window).served_within_sla < sla_fraction:
            high *= 2
            if high > 4096:
                return high
        while low < high:
            mid = (low + high) // 2
            if self.run(arrivals, mid, window).served_within_sla >= sla_fraction:
                high = mid
            else:
                low = mid + 1
        return low
