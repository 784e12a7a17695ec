"""Shared experiment configuration.

The timing simulation's constants fall into two groups:

* **Service times** -- how long a manager instance or peer spends on
  one request of each round.  Defaults were calibrated by running the
  *actual functional implementation* (see
  :mod:`repro.experiments.calibration`) on the development machine;
  re-run the calibration to adapt them to other hardware.  The paper's
  1U dual-Xeon servers land in the same low-millisecond ballpark.
* **Deployment shape** -- farm sizes matching Section VI: "We use two
  User Managers and four Channel Managers in total to serve two
  partitions."
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional


@dataclass(frozen=True)
class ServiceTimes:
    """Mean per-request service times (seconds) by protocol round.

    The cost structure mirrors the cryptographic work each handler
    performs in :mod:`repro.core`:

    * LOGIN1: UserDB lookup + symmetric blob encryption (cheap);
    * LOGIN2: client-signature verify + ticket signing (two RSA ops);
    * SWITCH1: User Ticket signature verify + token mint;
    * SWITCH2: ticket verify + nonce verify + policy eval + ticket
      signing (the most expensive round);
    * JOIN: ticket verify + session-key RSA encryption at the peer;
    * client_compute: the client's own RSA signing/decryption between
      rounds (counted into end-to-end latency, not server load).
    """

    login1: float = 0.0012
    login2: float = 0.0045
    switch1: float = 0.0018
    switch2: float = 0.0060
    join_peer: float = 0.0040
    client_compute: float = 0.0025

    def scaled(self, factor: float) -> "ServiceTimes":
        """All service times multiplied by ``factor`` (slower hardware)."""
        return ServiceTimes(
            login1=self.login1 * factor,
            login2=self.login2 * factor,
            switch1=self.switch1 * factor,
            switch2=self.switch2 * factor,
            join_peer=self.join_peer * factor,
            client_compute=self.client_compute * factor,
        )


@dataclass(frozen=True)
class WeeklongConfig:
    """Configuration for the simulated measurement week.

    ``peak_concurrent`` scales everything; the paper's measured week
    peaked around 25-30k concurrent users.  Full scale is feasible but
    slow in pure Python; the ``fast()`` preset keeps benchmark runs in
    seconds while preserving every structural property (diurnal shape,
    flash factor, farm utilization, correlation statistics).
    """

    seed: int = 20080623  # the paper's measurement week began 2008-06-23
    peak_concurrent: int = 300
    n_channels: int = 40
    horizon: float = 7 * 86400.0
    mean_session: float = 1800.0
    user_ticket_lifetime: float = 1800.0
    channel_ticket_lifetime: float = 900.0
    um_instances: int = 2
    cm_partitions: int = 2
    cm_instances_per_partition: int = 2
    service: ServiceTimes = field(default_factory=ServiceTimes)
    #: JOIN rejection model: probability a candidate peer is full is
    #: base + slope * (load fraction); rejections force another
    #: attempt, giving JOIN its mild positive load correlation (the
    #: paper measured r = 0.13).
    join_reject_base: float = 0.05
    join_reject_slope: float = 0.04
    peer_list_size: int = 8
    #: Feedback-log sampling probability (the measurement methodology).
    feedback_prob: float = 1.0

    @classmethod
    def fast(cls) -> "WeeklongConfig":
        """Small-but-structurally-faithful preset for benchmarks."""
        return cls(peak_concurrent=300, n_channels=40)

    @classmethod
    def paper_scale(cls) -> "WeeklongConfig":
        """The production week's magnitude (slow: minutes of runtime)."""
        return cls(peak_concurrent=27000, n_channels=200)

    def with_peak(self, peak_concurrent: int) -> "WeeklongConfig":
        """Copy with a different audience scale."""
        return replace(self, peak_concurrent=peak_concurrent)
