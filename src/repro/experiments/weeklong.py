"""The simulated measurement week behind Figs. 5 and 6.

Reproduction logic
------------------
The paper measures the latency of five protocol rounds (LOGIN1/2,
SWITCH1/2, JOIN) from one week of production feedback logs and finds
them uncorrelated with concurrent-user count.  The *mechanism* behind
that result is structural:

* manager farms are stateless and provisioned so that per-request
  queueing is negligible against WAN RTT;
* WAN RTT does not depend on the service's own load;
* only JOIN has any load coupling at all -- under higher load more
  candidate peers are at capacity, so a joiner occasionally needs a
  second attempt -- which is why the paper measures r = 0.13 for JOIN
  versus |r| <= 0.08 for the server rounds.

This runner rebuilds exactly that mechanism: a week-long request
trace from the workload generator, manager farms as multi-server FIFO
stations whose service times are calibrated from the real functional
handlers, a WAN latency model, and a capacity-dependent JOIN retry
model.  Latency samples land in a :class:`LatencyCollector` with the
paper's hourly/peak-vs-off-peak analyses.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.experiments.common import ServiceTimes, WeeklongConfig
from repro.geo.regions import population_weights
from repro.metrics.collector import LatencyCollector
from repro.sim.engine import Simulator
from repro.sim.network import LatencyModel, peer_rtt, zattoo_like_rtt_table
from repro.sim.station import ServiceStation
from repro.workload.traces import (
    OP_JOIN,
    OP_LOGIN,
    OP_RENEW,
    OP_SWITCH,
    WeekTrace,
    WeekTraceGenerator,
)

_SITE = "dc-eu"


@dataclass
class WeeklongResult:
    """Everything Figs. 5 and 6 are drawn from."""

    config: WeeklongConfig
    trace: WeekTrace
    collector: LatencyCollector
    um_utilization: float
    cm_utilizations: List[float]

    def correlation(self, round_name: str, min_samples: int = 1) -> float:
        """Pearson r between hourly median latency and concurrent users."""
        return self.collector.correlation_with_load(
            round_name, self.trace.concurrent_at, min_samples_per_bin=min_samples
        )


class WeeklongRunner:
    """Runs the simulated measurement week."""

    def __init__(self, config: WeeklongConfig) -> None:
        self.config = config
        self._rng = random.Random(config.seed)
        self._region_names, self._region_weights = population_weights()
        self._region_cache: Dict[int, str] = {}

    def _region_of_user(self, user_index: int) -> str:
        region = self._region_cache.get(user_index)
        if region is None:
            region = self._rng.choices(self._region_names, self._region_weights)[0]
            self._region_cache[user_index] = region
        return region

    def run(self) -> WeeklongResult:
        """Generate the trace, replay it through the farms, collect."""
        config = self.config
        trace = WeekTraceGenerator(
            rng=random.Random(config.seed + 1),
            peak_concurrent=config.peak_concurrent,
            n_channels=config.n_channels,
            horizon=config.horizon,
            mean_session=config.mean_session,
            user_ticket_lifetime=config.user_ticket_lifetime,
            channel_ticket_lifetime=config.channel_ticket_lifetime,
        ).generate()

        sim = Simulator()
        latency_model = LatencyModel(
            random.Random(config.seed + 2), table=zattoo_like_rtt_table()
        )
        service = config.service
        station_rng = random.Random(config.seed + 3)
        # One logical User Manager farm of um_instances servers; the
        # mean_service_time on the station is only a default -- every
        # submit passes its round-specific sample.
        um_station = ServiceStation(
            sim,
            n_servers=config.um_instances,
            mean_service_time=service.login2,
            rng=station_rng,
            name="user-manager-farm",
        )
        um_station.record_samples = False
        cm_stations = [
            ServiceStation(
                sim,
                n_servers=config.cm_instances_per_partition,
                mean_service_time=service.switch2,
                rng=station_rng,
                name=f"channel-manager-farm-{i}",
            )
            for i in range(config.cm_partitions)
        ]
        for station in cm_stations:
            station.record_samples = False

        collector = LatencyCollector()
        rng = random.Random(config.seed + 4)

        def two_round_exchange(
            event_time: float,
            region: str,
            station: ServiceStation,
            round1: str,
            mean1: float,
            round2: str,
            mean2: float,
        ) -> None:
            """Schedule a two-round client/server exchange.

            Round latency as the client log records it: one full RTT
            plus the server sojourn.  Round 2 starts after the client's
            own compute (signing) completes.
            """

            rtt1 = latency_model.sample_rtt(region, _SITE)

            def arrive_round1(s: Simulator) -> None:
                station.submit(
                    on_complete=lambda s2, sojourn: complete_round1(s2, sojourn),
                    service_time=rng.expovariate(1.0 / mean1),
                )

            def complete_round1(s: Simulator, sojourn: float) -> None:
                receive_time = s.now + rtt1 / 2.0
                collector.record(round1, event_time, receive_time - event_time)
                send2 = receive_time + rng.expovariate(1.0 / service.client_compute)
                rtt2 = latency_model.sample_rtt(region, _SITE)

                def arrive_round2(s2: Simulator) -> None:
                    station.submit(
                        on_complete=lambda s3, sojourn2: collector.record(
                            round2, send2, (s3.now + rtt2 / 2.0) - send2
                        ),
                        service_time=rng.expovariate(1.0 / mean2),
                    )

                s.schedule_at(send2 + rtt2 / 2.0, arrive_round2)

            sim.schedule_at(event_time + rtt1 / 2.0, arrive_round1)

        peak = max(1, config.peak_concurrent)

        def join_latency(event_time: float, region: str) -> float:
            """JOIN: capacity-dependent retries over the peer list.

            Computed analytically (peers are not queued stations); the
            retry probability grows with instantaneous load, giving
            the mild positive correlation the paper measures.
            """
            load_fraction = min(1.0, trace.concurrent_at(event_time) / peak)
            p_reject = min(
                0.9, config.join_reject_base + config.join_reject_slope * load_fraction
            )
            total = 0.0
            for attempt in range(config.peer_list_size):
                same_region = rng.random() < 0.7
                total += peer_rtt(rng, same_region)
                total += rng.expovariate(1.0 / config.service.join_peer)
                if attempt == config.peer_list_size - 1:
                    break
                if rng.random() >= p_reject:
                    break
            # Client decrypts the session key (RSA private op).
            total += rng.expovariate(1.0 / service.client_compute)
            return total

        for event in trace.events:
            region = self._region_of_user(event.user_index)
            if event.op == OP_LOGIN:
                two_round_exchange(
                    event.time, region, um_station,
                    "LOGIN1", service.login1, "LOGIN2", service.login2,
                )
            elif event.op in (OP_SWITCH, OP_RENEW):
                partition = hash(event.channel) % config.cm_partitions
                two_round_exchange(
                    event.time, region, cm_stations[partition],
                    "SWITCH1", service.switch1, "SWITCH2", service.switch2,
                )
            elif event.op == OP_JOIN:
                collector.record("JOIN", event.time, join_latency(event.time, region))

        sim.run()
        return WeeklongResult(
            config=config,
            trace=trace,
            collector=collector,
            um_utilization=um_station.utilization(config.horizon),
            cm_utilizations=[s.utilization(config.horizon) for s in cm_stations],
        )
