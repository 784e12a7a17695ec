"""Week-long request traces and the feedback-log sampling methodology.

The paper measures protocol latencies from opt-in "user feedback" logs
collected over one week (June 23--29, 2008; 60,669 logs).  We generate
the equivalent synthetic object: every DRM protocol operation every
client would perform over a simulated week, given the diurnal session
arrival process and the zapping behaviour model.  A
:class:`FeedbackLogSampler` then mimics the opt-in collection: only a
random subset of sessions "submit feedback", and analyses can run on
the sample exactly as the paper's did (their earlier work validated
the sample's representativeness; our experiments re-verify it by
comparing sample statistics against the full population).

Operations per session:

* one LOGIN at session start (plus re-LOGINs each User Ticket
  lifetime, since renewal repeats the login protocol, Section IV-D);
* a SWITCH + JOIN at session start and at every channel change;
* a RENEW (Channel Ticket renewal: the SWITCH rounds with the renewal
  bit) every Channel Ticket lifetime within a long dwell, each
  followed by presenting the ticket to the parent (no new JOIN).
"""

from __future__ import annotations

import bisect
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.workload.diurnal import DiurnalProfile
from repro.workload.zapping import ZappingModel, ZipfChannelPopularity

WEEK_SECONDS = 7 * 86400.0

OP_LOGIN = "LOGIN"
OP_SWITCH = "SWITCH"
OP_RENEW = "RENEW"
OP_JOIN = "JOIN"


@dataclass(frozen=True)
class RequestEvent:
    """One DRM protocol operation performed by one client."""

    time: float
    op: str
    user_index: int
    session_id: int
    channel: str = ""


@dataclass
class WeekTrace:
    """The full synthetic week: events plus session intervals."""

    events: List[RequestEvent]
    sessions: List[Tuple[float, float]]  # (start, end) per session id
    _starts: List[float] = field(default_factory=list, repr=False)
    _ends: List[float] = field(default_factory=list, repr=False)

    def finalize(self) -> "WeekTrace":
        """Sort events and build the concurrency index."""
        self.events.sort(key=lambda e: e.time)
        self._starts = sorted(s for s, _ in self.sessions)
        self._ends = sorted(e for _, e in self.sessions)
        return self

    def concurrent_at(self, time: float) -> int:
        """Sessions in progress at ``time`` (started and not yet ended)."""
        started = bisect.bisect_right(self._starts, time)
        ended = bisect.bisect_right(self._ends, time)
        return started - ended

    def events_of(self, op: str) -> List[RequestEvent]:
        """All events of one operation type, time-ordered."""
        return [e for e in self.events if e.op == op]

    def count_of(self, op: str) -> int:
        """Number of events of one operation type."""
        return sum(1 for e in self.events if e.op == op)


class WeekTraceGenerator:
    """Generates a week of DRM protocol traffic.

    Parameters
    ----------
    peak_concurrent:
        Target peak concurrent sessions (the paper's deployment peaked
        around 25-30k in the measured week; scale down for fast runs).
    n_channels:
        Channel lineup size (the production network carried 200+).
    mean_session:
        Mean session length in seconds.
    user_ticket_lifetime / channel_ticket_lifetime:
        Drive re-login and renewal cadence.
    """

    def __init__(
        self,
        rng: random.Random,
        peak_concurrent: int = 2000,
        n_channels: int = 60,
        zipf_s: float = 1.0,
        horizon: float = WEEK_SECONDS,
        mean_session: float = 1800.0,
        user_ticket_lifetime: float = 1800.0,
        channel_ticket_lifetime: float = 900.0,
        profile: Optional[DiurnalProfile] = None,
    ) -> None:
        self._rng = rng
        self.peak_concurrent = peak_concurrent
        self.horizon = horizon
        self.mean_session = mean_session
        self.user_ticket_lifetime = user_ticket_lifetime
        self.channel_ticket_lifetime = channel_ticket_lifetime
        self.profile = profile or DiurnalProfile()
        channels = [f"ch{i:03d}" for i in range(n_channels)]
        self._popularity = ZipfChannelPopularity(channels, zipf_s, rng)
        self._zapping = ZappingModel(self._popularity, rng)

    def session_arrival_rate(self, time: float) -> float:
        """Session arrivals/second at ``time`` (Little's law inversion).

        Target concurrency N(t) with mean session length S implies an
        arrival rate of N(t)/S.
        """
        scale = self.peak_concurrent / self.profile.peak_multiplier()
        return (self.profile.multiplier(time) * scale) / self.mean_session

    def generate(self) -> WeekTrace:
        """Produce the full week trace."""
        ceiling = self.peak_concurrent / self.mean_session * 1.05
        events: List[RequestEvent] = []
        sessions: List[Tuple[float, float]] = []
        session_id = 0
        t = 0.0
        while True:
            t += self._rng.expovariate(ceiling)
            if t >= self.horizon:
                break
            if self._rng.random() >= self.session_arrival_rate(t) / ceiling:
                continue
            length = self._rng.expovariate(1.0 / self.mean_session)
            length = max(5.0, min(length, self.horizon - t))
            user_index = session_id  # one synthetic user per session
            events.extend(self._session_events(t, length, user_index, session_id))
            sessions.append((t, t + length))
            session_id += 1
        return WeekTrace(events=events, sessions=sessions).finalize()

    def _session_events(
        self, start: float, length: float, user_index: int, session_id: int
    ) -> List[RequestEvent]:
        events: List[RequestEvent] = [
            RequestEvent(time=start, op=OP_LOGIN, user_index=user_index, session_id=session_id)
        ]
        # Re-logins: the client renews its User Ticket by repeating the
        # login protocol before expiry.
        relogin = start + self.user_ticket_lifetime * 0.95
        while relogin < start + length:
            events.append(
                RequestEvent(time=relogin, op=OP_LOGIN, user_index=user_index, session_id=session_id)
            )
            relogin += self.user_ticket_lifetime * 0.95
        # Channel dwells: a switch+join at each dwell start, renewals
        # inside long dwells.
        elapsed = 0.0
        for dwell in self._zapping.session(length):
            dwell_start = start + elapsed
            events.append(
                RequestEvent(
                    time=dwell_start,
                    op=OP_SWITCH,
                    user_index=user_index,
                    session_id=session_id,
                    channel=dwell.channel,
                )
            )
            events.append(
                RequestEvent(
                    time=dwell_start,
                    op=OP_JOIN,
                    user_index=user_index,
                    session_id=session_id,
                    channel=dwell.channel,
                )
            )
            renew = dwell_start + self.channel_ticket_lifetime * 0.95
            while renew < dwell_start + dwell.duration:
                events.append(
                    RequestEvent(
                        time=renew,
                        op=OP_RENEW,
                        user_index=user_index,
                        session_id=session_id,
                        channel=dwell.channel,
                    )
                )
                renew += self.channel_ticket_lifetime * 0.95
            elapsed += dwell.duration
        return events


class FeedbackLogSampler:
    """The paper's opt-in data collection, modelled.

    Each session independently "submits feedback" with probability
    ``submit_prob``; a submitted feedback contains *all* of that
    client's session events (submissions "include logs from all
    channel watching sessions at the client prior to the one with
    error ... these feedbacks also include sessions without errors").
    """

    def __init__(self, rng: random.Random, submit_prob: float = 0.05) -> None:
        if not 0 < submit_prob <= 1:
            raise ValueError("submit probability must be in (0, 1]")
        self._rng = rng
        self.submit_prob = submit_prob

    def sample(self, trace: WeekTrace) -> List[RequestEvent]:
        """Events belonging to sampled sessions, time-ordered."""
        submitted = {
            sid
            for sid in range(len(trace.sessions))
            if self._rng.random() < self.submit_prob
        }
        return [e for e in trace.events if e.session_id in submitted]

    def sampled_session_count(self, trace: WeekTrace) -> int:
        """Expected number of feedback logs for a trace (for reports)."""
        return int(round(len(trace.sessions) * self.submit_prob))
