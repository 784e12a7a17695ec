"""The Channel Manager: channel access authorization and viewing log.

One logical Channel Manager serves one Channel Listing Partition
(Section V); physically it may be a farm sharing one keypair, one farm
secret, and one *viewing activity log* -- the log must be shared
because renewal decisions (Section IV-D) depend on the globally latest
entry per (UserIN, channel).

Responsibilities (Sections IV-C, IV-D):

* verify presented User Tickets (User Manager signature, expiry,
  NetAddr against the live connection);
* challenge the client with a nonce and verify the signed response;
* evaluate the target channel's policies over the ticket's attributes;
* issue Channel Tickets that carry only the NetAddr -- the privacy
  intermediation point between user data and the P2P network;
* log every issuance for billing/royalties and enforce the
  one-location-per-account rule at renewal time.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.challenge import ChallengeIssuer, answer_challenge
from repro.core.policy import Decision
from repro.core.policy_manager import ChannelRecord
from repro.core.ticket_cache import TicketVerificationCache
from repro.core.protocol import (
    PeerDescriptor,
    Switch1Request,
    Switch1Response,
    Switch2Request,
    Switch2Response,
)
from repro.core.tickets import ChannelTicket, UserTicket
from repro.crypto.drbg import HmacDrbg
from repro.crypto.rsa import RsaPrivateKey, RsaPublicKey
from repro.errors import (
    AuthorizationError,
    PolicyRejectError,
    RateLimitError,
    RenewalRefusedError,
    TicketInvalidError,
)
from repro.store.journal import Journaled
from repro.trace.span import Tracer, maybe_span
from repro.util.wire import Decoder, Encoder

#: Durable-store record types (see :mod:`repro.store`).
REC_VIEWING_ENTRY = 1
REC_CHANNEL_LIST = 2
REC_REJECTION = 3

#: Returns up to ``count`` candidate peers on ``channel_id``, excluding
#: the requesting address (a client is never pointed at itself).
PeerListProvider = Callable[[str, str, int], Sequence[PeerDescriptor]]

#: Live (signature -> issuing UM key) memo entries kept per manager;
#: sized like the ticket verification cache it front-ends.
_UM_KEY_MEMO_SIZE = 1024


@dataclass(frozen=True)
class ViewingLogEntry:
    """One row of the viewing activity log (Section IV-D).

    "Every time the Channel Manager issues a new Channel Ticket, it
    logs the UserIN, channel watched, and client NetAddr."
    """

    user_id: int
    channel_id: str
    net_addr: str
    issued_at: float
    renewal: bool
    #: The issued ticket's expiry -- what the viewing actually covers.
    #: Billing and royalty reports need this because expiries can be
    #: pinned short of the lifetime (blackout/PPV boundaries).
    expires_at: Optional[float] = None

    def encode(self, enc: "Encoder") -> None:
        """Append the canonical encoding to ``enc``."""
        enc.put_u64(self.user_id)
        enc.put_str(self.channel_id)
        enc.put_str(self.net_addr)
        enc.put_f64(self.issued_at)
        enc.put_bool(self.renewal)
        enc.put_opt_f64(self.expires_at)

    @classmethod
    def decode(cls, dec: "Decoder") -> "ViewingLogEntry":
        """Read one entry from ``dec``."""
        return cls(
            user_id=dec.get_u64(),
            channel_id=dec.get_str(),
            net_addr=dec.get_str(),
            issued_at=dec.get_f64(),
            renewal=dec.get_bool(),
            expires_at=dec.get_opt_f64(),
        )


class ChannelManager(Journaled):
    """A logical Channel Manager for one partition.

    Parameters
    ----------
    signing_key:
        Farm keypair; the public half is distributed with each channel
        description so peers can verify Channel Tickets.
    farm_secret:
        Authenticates nonce-challenge tokens across the farm.
    user_manager_keys:
        Public keys of every User Manager whose tickets this partition
        accepts (one per Authentication Domain).
    ticket_lifetime:
        Channel Ticket lifetime cap in seconds (further capped by the
        presented User Ticket's expiry).
    renewal_window:
        Half-width of the window around expiry inside which a renewal
        request is acceptable.
    partition:
        Channel Listing Partition name.
    """

    def __init__(
        self,
        signing_key: RsaPrivateKey,
        farm_secret: bytes,
        drbg: HmacDrbg,
        user_manager_keys: Sequence[RsaPublicKey],
        ticket_lifetime: float = 900.0,
        renewal_window: float = 120.0,
        partition: str = "default",
        peer_list_size: int = 8,
    ) -> None:
        self._key = signing_key
        self._issuer = ChallengeIssuer(farm_secret, drbg.fork(b"cm-challenge"))
        self._um_keys = list(user_manager_keys)
        #: signature -> the UM key that verified it (LRU): tickets do
        #: not name their issuing domain, so this keeps verification
        #: O(1) per request instead of O(domains) as the tier grows.
        self._um_key_memo: "OrderedDict[bytes, RsaPublicKey]" = OrderedDict()
        #: A client presents the same User Ticket on every switch and
        #: renewal for the ticket's lifetime; caching the (key, body,
        #: signature) triples that verified turns those repeat checks
        #: into a dict lookup.
        self._ticket_cache = TicketVerificationCache()
        self.ticket_lifetime = ticket_lifetime
        self.renewal_window = renewal_window
        self.partition = partition
        self.peer_list_size = peer_list_size
        self._channels: Dict[str, ChannelRecord] = {}
        self._log: List[ViewingLogEntry] = []
        self._latest: Dict[Tuple[int, str], ViewingLogEntry] = {}
        #: Optional sharded viewing-log router (repro.sharding): when
        #: installed, renewal checks and log appends go to the
        #: partition owning the *user*, not this farm's local log.
        self._viewing_router = None
        self._peer_list_provider: Optional[PeerListProvider] = None
        self.tickets_issued = 0
        self.renewals_issued = 0
        self.rejections = 0
        self.rate_limited = 0
        #: Per-address sliding-window JOIN/SWITCH rate limit; disabled
        #: (None) by default.  See :meth:`set_join_rate_limit`.
        self._rate_limit: Optional[Tuple[int, float]] = None
        self._request_times: Dict[str, List[float]] = {}
        #: Called as ``listener(observed_addr, now)`` whenever the rate
        #: limiter fires; the deployment wires this to the misbehavior
        #: scorecard so floods count against the flooding peer.
        self.rate_limit_listener = None
        #: Shared tracer, attached by Deployment.enable_tracing().
        self.tracer: Optional[Tracer] = None

    @property
    def public_key(self) -> RsaPublicKey:
        """The farm's Channel Ticket verification key."""
        return self._key.public_key

    # ------------------------------------------------------------------
    # Feeds
    # ------------------------------------------------------------------

    def receive_channel_list(self, channel_list: Dict[str, ChannelRecord]) -> None:
        """Channel Policy Manager push; keep only this partition's channels."""
        self._channels = {
            cid: record
            for cid, record in channel_list.items()
            if record.partition == self.partition
        }
        if self._store is not None:
            enc = Encoder()
            enc.put_u32(len(self._channels))
            for cid in sorted(self._channels):
                enc.put_bytes(self._channels[cid].to_bytes())
            self._journal(REC_CHANNEL_LIST, enc.to_bytes())

    def add_user_manager_key(self, key: RsaPublicKey) -> None:
        """Accept tickets from an additional Authentication Domain."""
        self._um_keys.append(key)

    def set_peer_list_provider(self, provider: PeerListProvider) -> None:
        """Wire the P2P overlay's peer sampler in."""
        self._peer_list_provider = provider

    def set_viewing_router(self, router) -> None:
        """Route viewing-log traffic through a user-partitioned router.

        With many Channel Manager farms -- and channels moving between
        them -- the one-location rule only holds if every farm checks
        renewals against the *same* history for a user.  The router
        (:class:`~repro.sharding.ShardedViewingLog`) owns that history,
        partitioned by UserIN; this farm's local log remains as a
        billing/audit record of what it issued.
        """
        self._viewing_router = router

    def serves_channel(self, channel_id: str) -> bool:
        """Is this channel in my partition?"""
        return channel_id in self._channels

    # ------------------------------------------------------------------
    # Ticket verification helpers
    # ------------------------------------------------------------------

    def _verify_user_ticket(self, ticket: UserTicket, now: float) -> None:
        """Verify against any known User Manager key.

        Fig. 3 tickets do not name their issuing domain, so the first
        presentation scans the key list.  The winning key is memoized
        by signature: every later SWITCH1/SWITCH2/renewal round on the
        same ticket verifies against exactly one key, keeping per-
        request cost flat as Authentication Domains are added (the
        scan is paid once per *ticket*, not once per request).
        """
        remembered = self._um_key_memo.get(ticket.signature)
        if remembered is not None:
            self._um_key_memo.move_to_end(ticket.signature)
            ticket.verify(remembered, now, cache=self._ticket_cache)
            return
        last_error: Optional[Exception] = None
        for key in self._um_keys:
            try:
                ticket.verify(key, now, cache=self._ticket_cache)
            except AuthorizationError:
                raise
            except Exception as exc:  # SignatureError: try next domain key
                last_error = exc
                continue
            self._um_key_memo[ticket.signature] = key
            while len(self._um_key_memo) > _UM_KEY_MEMO_SIZE:
                self._um_key_memo.popitem(last=False)
            return
        raise TicketInvalidError(
            f"user ticket not signed by any known User Manager: {last_error}"
        )

    # ------------------------------------------------------------------
    # SWITCH1
    # ------------------------------------------------------------------

    def switch1(self, request: Switch1Request, now: float) -> Switch1Response:
        """First round: vet the User Ticket cheaply, return a nonce."""
        with maybe_span(
            self.tracer, "CM.SWITCH1", now=now, kind="server",
            renewal=request.is_renewal,
        ):
            return self._switch1(request, now)

    def _switch1(self, request: Switch1Request, now: float) -> Switch1Response:
        self._verify_user_ticket(request.user_ticket, now)
        if not self.serves_channel(request.target_channel):
            raise AuthorizationError(
                f"channel {request.target_channel!r} not in partition {self.partition!r}"
            )
        token = self._issuer.issue(subject=str(request.user_ticket.user_id), now=now)
        return Switch1Response(token=token)

    # ------------------------------------------------------------------
    # SWITCH2
    # ------------------------------------------------------------------

    def switch2(
        self, request: Switch2Request, observed_addr: str, now: float
    ) -> Switch2Response:
        """Second round: full checks, then issue (or renew) the ticket."""
        with maybe_span(
            self.tracer, "CM.SWITCH2", now=now, kind="server",
            renewal=request.is_renewal, channel=request.target_channel,
        ) as span:
            response = self._switch2(request, observed_addr, now)
            if span is not None:
                span.annotate("peer_list", len(response.peers))
            return response

    def set_join_rate_limit(self, limit: int, window: float) -> None:
        """Cap SWITCH2 requests per source address: ``limit`` per
        sliding ``window`` seconds.  Excess requests are refused with
        :class:`RateLimitError` *before* any signature work -- the
        point of a JOIN-flood defence is to shed load cheaply.
        """
        if limit < 1:
            raise ValueError("rate limit must allow at least one request")
        if window <= 0:
            raise ValueError("rate-limit window must be positive")
        self._rate_limit = (limit, window)

    def _check_rate_limit(self, observed_addr: str, now: float) -> None:
        if self._rate_limit is None:
            return
        limit, window = self._rate_limit
        times = self._request_times.setdefault(observed_addr, [])
        cutoff = now - window
        while times and times[0] <= cutoff:
            times.pop(0)
        if len(times) >= limit:
            self.rate_limited += 1
            if self.rate_limit_listener is not None:
                self.rate_limit_listener(observed_addr, now)
            raise RateLimitError(
                f"{observed_addr} exceeded {limit} switch requests per {window:g}s"
            )
        times.append(now)

    def _switch2(
        self, request: Switch2Request, observed_addr: str, now: float
    ) -> Switch2Response:
        self._check_rate_limit(observed_addr, now)
        user_ticket = request.user_ticket
        self._verify_user_ticket(user_ticket, now)
        user_ticket.check_net_addr(observed_addr)
        self._issuer.verify_response(
            challenge=request.token,
            subject=str(user_ticket.user_id),
            response_signature=request.signature,
            client_public_key=user_ticket.client_public_key,
            now=now,
        )
        channel_id = request.target_channel
        record = self._channels.get(channel_id)
        if record is None:
            self._note_rejection(now)
            raise AuthorizationError(
                f"channel {channel_id!r} not in partition {self.partition!r}"
            )

        if request.is_renewal:
            ticket = self._renew(request, record, observed_addr, now)
        else:
            ticket = self._issue_new(request, record, observed_addr, now)

        peers: Tuple[PeerDescriptor, ...] = ()
        if self._peer_list_provider is not None:
            peers = tuple(
                self._peer_list_provider(channel_id, observed_addr, self.peer_list_size)
            )
        return Switch2Response(ticket=ticket, peers=peers)

    def _cap_at_future_reject(
        self, record: ChannelRecord, user_ticket: UserTicket, now: float, expire: float
    ) -> float:
        """Never issue a ticket valid into a scheduled REJECT window.

        Section IV-C worries that "a user's Channel Ticket could be
        valid into the blackout period".  Policy outcomes only change
        at attribute validity boundaries (stime/etime of channel and
        user attributes), so we evaluate at each boundary inside
        (now, expire] and cap the expiry at the first one that turns
        the decision into REJECT.
        """
        compiled = record.compiled()
        boundaries = set(compiled.boundaries_between(now, expire))
        for attribute in user_ticket.attributes:
            for bound in (attribute.stime, attribute.etime):
                if bound is not None and now < bound <= expire:
                    boundaries.add(bound)
        for boundary in sorted(boundaries):
            result = compiled.evaluate(user_ticket.attributes, boundary)
            if result.decision is not Decision.ACCEPT:
                return boundary
        return expire

    def _evaluate(self, record: ChannelRecord, user_ticket: UserTicket, now: float) -> None:
        """Run policy evaluation; raise PolicyRejectError on REJECT."""
        result = record.compiled().evaluate(user_ticket.attributes, now)
        if result.decision is not Decision.ACCEPT:
            self._note_rejection(now)
            matched = str(result.matched_policy) if result.matched_policy else "default"
            raise PolicyRejectError(
                f"policy rejected user {user_ticket.user_id} on channel "
                f"{record.channel_id}: {matched}"
            )

    def _issue_new(
        self,
        request: Switch2Request,
        record: ChannelRecord,
        observed_addr: str,
        now: float,
    ) -> ChannelTicket:
        """Fresh Channel Ticket (Section IV-C)."""
        user_ticket = request.user_ticket
        self._evaluate(record, user_ticket, now)
        expire = min(now + self.ticket_lifetime, user_ticket.expire_time)
        expire = self._cap_at_future_reject(record, user_ticket, now, expire)
        ticket = ChannelTicket(
            channel_id=record.channel_id,
            user_id=user_ticket.user_id,
            client_public_key=user_ticket.client_public_key,
            net_addr=observed_addr,
            renewal=False,
            start_time=now,
            expire_time=expire,
        ).signed(self._key)
        self._append_log(ticket, now)
        self.tickets_issued += 1
        return ticket

    def _renew(
        self,
        request: Switch2Request,
        record: ChannelRecord,
        observed_addr: str,
        now: float,
    ) -> ChannelTicket:
        """Renewal (Section IV-D): viewing-log check enforces one location.

        The expiring ticket must verify (signature; expiry is checked
        against the renewal window rather than strictly), the latest
        log entry for (UserIN, channel) must show the same NetAddr as
        both tickets, and the usual policy checks must still pass.
        """
        user_ticket = request.user_ticket
        expiring = request.expiring_ticket
        assert expiring is not None
        expiring.verify(
            self.public_key,
            now=min(now, expiring.expire_time),
            cache=self._ticket_cache,
        )
        if expiring.user_id != user_ticket.user_id:
            raise TicketInvalidError("expiring ticket belongs to a different user")
        if not expiring.is_within_renewal_window(now, self.renewal_window):
            raise RenewalRefusedError(
                f"renewal outside window: now={now}, expiry={expiring.expire_time}"
            )
        if self._viewing_router is not None:
            latest = self._viewing_router.latest(
                user_ticket.user_id, expiring.channel_id
            )
        else:
            latest = self._latest.get((user_ticket.user_id, expiring.channel_id))
        if latest is None:
            raise RenewalRefusedError("no viewing-log entry to renew against")
        if latest.net_addr != user_ticket.net_addr or latest.net_addr != expiring.net_addr:
            # The account has since been used from another address: the
            # newer location wins, the old location's renewal is refused.
            raise RenewalRefusedError(
                f"viewing log shows {latest.net_addr}, ticket claims {expiring.net_addr}"
            )
        self._evaluate(record, user_ticket, now)
        expire = min(now + self.ticket_lifetime, user_ticket.expire_time)
        expire = self._cap_at_future_reject(record, user_ticket, now, expire)
        ticket = ChannelTicket(
            channel_id=expiring.channel_id,
            user_id=expiring.user_id,
            client_public_key=user_ticket.client_public_key,
            net_addr=observed_addr,
            renewal=True,
            start_time=now,
            expire_time=expire,
        ).signed(self._key)
        self._append_log(ticket, now)
        self.renewals_issued += 1
        return ticket

    def _append_log(self, ticket: ChannelTicket, now: float) -> None:
        entry = ViewingLogEntry(
            user_id=ticket.user_id,
            channel_id=ticket.channel_id,
            net_addr=ticket.net_addr,
            issued_at=now,
            renewal=ticket.renewal,
            expires_at=ticket.expire_time,
        )
        if self._viewing_router is not None:
            # Routed before any local effect: a frozen-range refusal
            # (mid-resharding) must leave no partial state behind --
            # the caller defers the whole operation and replays it
            # after cutover.
            self._viewing_router.append(entry)
        if self._store is not None:
            # Write-ahead: the entry is durable before the issuance is
            # visible to anyone (the ticket has not left the handler).
            enc = Encoder()
            entry.encode(enc)
            self._journal(REC_VIEWING_ENTRY, enc.to_bytes())
        self._log.append(entry)
        self._latest[(ticket.user_id, ticket.channel_id)] = entry

    def _note_rejection(self, now: float) -> None:
        self.rejections += 1
        if self._store is not None:
            self._journal(REC_REJECTION, Encoder().put_f64(now).to_bytes())

    # ------------------------------------------------------------------
    # Log access (billing / royalties / audits)
    # ------------------------------------------------------------------

    def viewing_log(self) -> List[ViewingLogEntry]:
        """A defensive copy of the viewing activity log, oldest first.

        Callers (analytics, royalty reports) receive their own list of
        the immutable entries: mutating the returned list can never
        corrupt the manager's internal log or its renewal decisions.
        """
        return list(self._log)

    def latest_entry(self, user_id: int, channel_id: str) -> Optional[ViewingLogEntry]:
        """The most recent log row for (UserIN, channel)."""
        return self._latest.get((user_id, channel_id))

    def viewing_log_bytes(self) -> bytes:
        """Canonical encoding of the whole log.

        Two managers hold identical viewing-log state iff these byte
        strings are equal -- the check the crash-recovery tests and
        the sim fault injector use.
        """
        enc = Encoder()
        enc.put_u32(len(self._log))
        for entry in self._log:
            entry.encode(enc)
        return enc.to_bytes()

    def share_log_with(self, other: "ChannelManager") -> None:
        """Make another instance share this farm's viewing log.

        Section V: farm instances "share a single network name/address,
        public/private key pair, and user viewing activity log."
        """
        other._log = self._log
        other._latest = self._latest

    def share_state_with(self, other: "ChannelManager") -> None:
        """Initialize a fresh replica of this farm.

        The viewing log is shared *by reference* -- the one-location
        rule only holds if every instance consults the same log -- and
        the Channel List is copied (each replica is independently
        subscribed to CPM pushes, which replace the dict wholesale).
        """
        self.share_log_with(other)
        other._channels = dict(self._channels)

    # ------------------------------------------------------------------
    # Durability (see repro.store.journal): the schema of what
    # ``attach_store`` journals and ``recover`` replays.  Challenge
    # tokens are MAC'd under the farm secret, which ``recover`` is
    # handed back, so a client holding a SWITCH1 token from before a
    # crash completes SWITCH2 against the recovered instance without
    # re-login.
    # ------------------------------------------------------------------

    def _snapshot_state(self) -> bytes:
        enc = Encoder()
        enc.put_str(self.partition)
        enc.put_u32(len(self._channels))
        for cid in sorted(self._channels):
            enc.put_bytes(self._channels[cid].to_bytes())
        enc.put_u32(len(self._log))
        for entry in self._log:
            entry.encode(enc)
        enc.put_u64(self.tickets_issued)
        enc.put_u64(self.renewals_issued)
        enc.put_u64(self.rejections)
        return enc.to_bytes()

    def _restore_state(self, state: bytes) -> None:
        dec = Decoder(state)
        partition = dec.get_str()
        if partition != self.partition:
            raise TicketInvalidError(
                f"store holds partition {partition!r}, manager is {self.partition!r}"
            )
        self._channels = {}
        for _ in range(dec.get_u32()):
            record = ChannelRecord.from_bytes(dec.get_view())
            self._channels[record.channel_id] = record
        self._log = []
        self._latest = {}
        for _ in range(dec.get_u32()):
            entry = ViewingLogEntry.decode(dec)
            self._log.append(entry)
            self._latest[(entry.user_id, entry.channel_id)] = entry
        self.tickets_issued = dec.get_u64()
        self.renewals_issued = dec.get_u64()
        self.rejections = dec.get_u64()
        dec.finish()

    def _apply_record(self, rec_type: int, body: bytes) -> None:
        dec = Decoder(body)
        if rec_type == REC_VIEWING_ENTRY:
            entry = ViewingLogEntry.decode(dec)
            self._log.append(entry)
            self._latest[(entry.user_id, entry.channel_id)] = entry
            if entry.renewal:
                self.renewals_issued += 1
            else:
                self.tickets_issued += 1
        elif rec_type == REC_CHANNEL_LIST:
            channels: Dict[str, ChannelRecord] = {}
            for _ in range(dec.get_u32()):
                record = ChannelRecord.from_bytes(dec.get_view())
                channels[record.channel_id] = record
            self._channels = channels
        elif rec_type == REC_REJECTION:
            dec.get_f64()
            self.rejections += 1
        else:
            raise TicketInvalidError(f"unknown WAL record type {rec_type}")
        dec.finish()
