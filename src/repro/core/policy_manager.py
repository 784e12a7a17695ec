"""The Channel Policy Manager: channel lineup, attributes, policies.

Section IV-A: the Channel Policy Manager maintains

1. the **Channel List** -- every channel with its attributes and
   policies (plus, with partitions, the address and public key of the
   Channel Manager serving it, Section V);
2. the **Channel Attribute List** -- the unique attributes collated
   from all channels, each carrying a last-update time (utime).

Whenever a channel is modified, all of its attributes' utimes are made
current in the Channel Attribute List; the updated attribute list is
pushed to User Managers (who stamp utimes into User Tickets) and the
Channel List is pushed to Channel Managers.  Clients notice newer
utimes in a fresh User Ticket and re-fetch the Channel List -- the
paper's mechanism for propagating lineup changes without polling.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.attributes import (
    ATTR_REGION,
    Attribute,
    AttributeSet,
    VALUE_ANY,
)
from repro.core.challenge import Challenge, ChallengeIssuer
from repro.core.policy import Decision, Policy, PolicyCondition
from repro.core.policy_index import CompiledPolicyIndex
from repro.core.ticket_cache import TicketVerificationCache
from repro.core.tickets import UserTicket
from repro.errors import AuthorizationError, ProtocolError, ReproError, TicketInvalidError
from repro.store.journal import Journaled
from repro.util.wire import Decoder, Encoder

#: Durable-store op-record types (see :mod:`repro.store`).  The CPM
#: journals *operations* rather than state images: replaying them with
#: their original ``now`` stamps reproduces every utime exactly, which
#: is what keeps utimes monotone across a crash.
OP_ADD_CHANNEL = 1
OP_DELETE_CHANNEL = 2
OP_SET_ATTRIBUTE = 3
OP_REMOVE_ATTRIBUTE = 4
OP_ADD_POLICY = 5
OP_REMOVE_POLICY = 6
OP_MOVE_PARTITION = 7
OP_SET_CHANNEL_MANAGER = 8


@dataclass
class ChannelRecord:
    """One channel in the Channel List."""

    channel_id: str
    attributes: AttributeSet = field(default_factory=AttributeSet)
    policies: List[Policy] = field(default_factory=list)
    partition: str = "default"
    #: Address of the Channel Manager farm serving this channel's
    #: partition; filled in by the service deployment (Section V: the
    #: Channel Manager's name and key "becomes part of the channel
    #: description").
    channel_manager_addr: Optional[str] = None
    #: Monotone modification counter.  The Channel Policy Manager bumps
    #: it (alongside the attribute utimes) on every mutation before
    #: propagating the record, and :meth:`compiled` rebuilds its cached
    #: policy index whenever the version moved -- the invalidation rule
    #: that makes a stale index (and thus a stale grant) impossible.
    version: int = 0

    #: Minimum wire size of one encoded policy: priority u32, two empty
    #: strings (4-byte prefixes each), and a u32 condition count.
    _MIN_POLICY_WIRE_SIZE = 16

    def copy(self) -> "ChannelRecord":
        """Deep-enough copy for handing to other managers.

        The compiled-index cache does not travel: the copy compiles
        its own on first evaluation, against its own version.
        """
        return ChannelRecord(
            channel_id=self.channel_id,
            attributes=self.attributes.copy(),
            policies=list(self.policies),
            partition=self.partition,
            channel_manager_addr=self.channel_manager_addr,
            version=self.version,
        )

    def compiled(self) -> "CompiledPolicyIndex":
        """This record's policy index, rebuilt when the version moved."""
        cached = self.__dict__.get("_compiled")
        if cached is not None and cached.version == self.version:
            return cached
        index = CompiledPolicyIndex(
            self.policies, self.attributes, version=self.version
        )
        self.__dict__["_compiled"] = index
        return index

    def to_bytes(self) -> bytes:
        """Canonical wire form, as pushed to Channel Managers and
        fetched by clients.  Everything a verifier needs travels in
        one self-contained blob."""
        from repro.util.wire import Encoder

        enc = Encoder()
        enc.put_str(self.channel_id)
        enc.put_str(self.partition)
        enc.put_str(self.channel_manager_addr or "")
        enc.put_u64(self.version)
        self.attributes.encode(enc)
        enc.put_u32(len(self.policies))
        for policy in self.policies:
            policy.encode(enc)
        return enc.to_bytes()

    @classmethod
    def from_bytes(cls, blob: bytes) -> "ChannelRecord":
        """Parse the wire form produced by :meth:`to_bytes`."""
        from repro.util.wire import Decoder

        dec = Decoder(blob)
        channel_id = dec.get_str()
        partition = dec.get_str()
        cm_addr = dec.get_str() or None
        version = dec.get_u64()
        attributes = AttributeSet.decode(dec)
        policies = [
            Policy.decode(dec)
            for _ in range(dec.get_count(cls._MIN_POLICY_WIRE_SIZE))
        ]
        dec.finish()
        return cls(
            channel_id=channel_id,
            attributes=attributes,
            policies=policies,
            partition=partition,
            channel_manager_addr=cm_addr,
            version=version,
        )


ChannelListListener = Callable[[Dict[str, ChannelRecord]], None]
AttributeListListener = Callable[[AttributeSet], None]


class ChannelPolicyManager(Journaled):
    """Central administration point for channel rights metadata.

    All mutators take an explicit ``now`` so utime stamping is
    deterministic under simulation.
    """

    def __init__(self) -> None:
        self._channels: Dict[str, ChannelRecord] = {}
        self._attribute_list = AttributeSet()
        self._channel_listeners: List[ChannelListListener] = []
        self._attribute_listeners: List[AttributeListListener] = []
        self._issuer: Optional[ChallengeIssuer] = None
        self._um_keys: List = []
        self._ticket_cache: Optional[TicketVerificationCache] = None

    # ------------------------------------------------------------------
    # Client access (challenge-protected Channel List fetch)
    # ------------------------------------------------------------------

    def enable_client_access(self, farm_secret: bytes, drbg, user_manager_keys) -> None:
        """Turn on the client-facing fetch API.

        Section IV-G1: obtaining the Channel List, like obtaining a
        Channel Ticket, requires the client to answer a nonce
        challenge signed with its private key -- so a stolen User
        Ticket alone reveals nothing.

        A verification cache spares repeat fetches a full RSA check
        of the same User Ticket.
        """
        self._issuer = ChallengeIssuer(farm_secret, drbg.fork(b"cpm-challenge"))
        self._um_keys = list(user_manager_keys)
        self._ticket_cache = TicketVerificationCache()

    def add_user_manager_key(self, key) -> None:
        """Accept tickets from an additional Authentication Domain."""
        self._um_keys.append(key)

    def _verify_user_ticket(self, ticket: UserTicket, now: float) -> None:
        last_error: Optional[Exception] = None
        for key in self._um_keys:
            try:
                ticket.verify(key, now, cache=self._ticket_cache)
                return
            except AuthorizationError:
                raise
            except Exception as exc:
                last_error = exc
        raise TicketInvalidError(
            f"user ticket not signed by any known User Manager: {last_error}"
        )

    def request_channel_list(self, user_ticket: UserTicket, now: float) -> Challenge:
        """Round 1 of the client fetch: vet the ticket, issue a nonce."""
        if self._issuer is None:
            raise ProtocolError("client access not enabled on this CPM")
        self._verify_user_ticket(user_ticket, now)
        return self._issuer.issue(subject=str(user_ticket.user_id), now=now)

    def fetch_channel_list(
        self,
        user_ticket: UserTicket,
        token: Challenge,
        signature: bytes,
        stale_keys: Optional[List[Tuple[str, str]]],
        now: float,
    ) -> Dict[str, ChannelRecord]:
        """Round 2: verify the nonce response, return the (partial) list.

        ``stale_keys`` of None means a full fetch (first login);
        otherwise only channels touching those attribute keys are
        returned (Section IV-B's partial refresh).
        """
        if self._issuer is None:
            raise ProtocolError("client access not enabled on this CPM")
        self._verify_user_ticket(user_ticket, now)
        self._issuer.verify_response(
            challenge=token,
            subject=str(user_ticket.user_id),
            response_signature=signature,
            client_public_key=user_ticket.client_public_key,
            now=now,
        )
        if stale_keys is None:
            return self.channel_list()
        return self.channels_for_attributes(stale_keys)

    # ------------------------------------------------------------------
    # Listener wiring (push distribution to UM / CM farms)
    # ------------------------------------------------------------------

    def add_channel_list_listener(self, listener: ChannelListListener) -> None:
        """Register a Channel Manager to receive Channel List pushes."""
        self._channel_listeners.append(listener)
        listener(self.channel_list())

    def add_attribute_list_listener(self, listener: AttributeListListener) -> None:
        """Register a User Manager to receive Channel Attribute List pushes."""
        self._attribute_listeners.append(listener)
        listener(self.channel_attribute_list())

    def remove_channel_list_listener(self, listener: ChannelListListener) -> bool:
        """Drop a Channel List listener (a crashed farm); True if present."""
        try:
            self._channel_listeners.remove(listener)
            return True
        except ValueError:
            return False

    def remove_attribute_list_listener(self, listener: AttributeListListener) -> bool:
        """Drop an attribute-list listener; True if present."""
        try:
            self._attribute_listeners.remove(listener)
            return True
        except ValueError:
            return False

    def _push(self) -> None:
        channel_list = self.channel_list()
        attribute_list = self.channel_attribute_list()
        for listener in self._channel_listeners:
            listener(channel_list)
        for listener in self._attribute_listeners:
            listener(attribute_list)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def channel_list(self) -> Dict[str, ChannelRecord]:
        """A copy of the full Channel List."""
        return {cid: rec.copy() for cid, rec in self._channels.items()}

    def channel_attribute_list(self) -> AttributeSet:
        """A copy of the collated unique Channel Attribute List."""
        return self._attribute_list.copy()

    def get_channel(self, channel_id: str) -> ChannelRecord:
        """One channel's record; raises if unknown."""
        record = self._channels.get(channel_id)
        if record is None:
            raise AuthorizationError(f"unknown channel: {channel_id}")
        return record.copy()

    def channels_for_attributes(
        self, stale_keys: List[Tuple[str, str]]
    ) -> Dict[str, ChannelRecord]:
        """Channels touching any of the given (name, value) attribute keys.

        Serves the client's partial refresh: "the client will contact
        the Channel Policy Manager with a list of attributes with more
        recent utimes to obtain an updated Channel List" (Section IV-B).
        """
        wanted = set(stale_keys)
        result: Dict[str, ChannelRecord] = {}
        for cid, record in self._channels.items():
            if any(attr.key in wanted for attr in record.attributes):
                result[cid] = record.copy()
        return result

    # ------------------------------------------------------------------
    # Mutators -- every one stamps utimes and pushes
    # ------------------------------------------------------------------

    def _touch_channel(self, record: ChannelRecord, now: float) -> None:
        """Make all of a modified channel's attribute utimes current.

        Implements: "Whenever a channel is modified, all its
        attributes' last update times are updated to the current time
        in the Channel Attribute List."  The record version bump is
        what invalidates every compiled policy index derived from the
        record (here and in every manager the push reaches).
        """
        record.version += 1
        refreshed = AttributeSet()
        for attr in record.attributes:
            refreshed.add(attr.with_utime(now))
        record.attributes = refreshed
        for attr in record.attributes:
            self._attribute_list.add(attr)
        self._push()

    def add_channel(
        self,
        channel_id: str,
        now: float,
        attributes: Optional[AttributeSet] = None,
        policies: Optional[List[Policy]] = None,
        partition: str = "default",
    ) -> ChannelRecord:
        """Create a channel and push the updated lists."""
        if channel_id in self._channels:
            raise ReproError(f"channel exists: {channel_id}")
        record = ChannelRecord(
            channel_id=channel_id,
            attributes=attributes.copy() if attributes else AttributeSet(),
            policies=list(policies or []),
            partition=partition,
        )
        enc = Encoder()
        enc.put_str(channel_id)
        enc.put_f64(now)
        record.attributes.encode(enc)
        enc.put_u32(len(record.policies))
        for policy in record.policies:
            policy.encode(enc)
        enc.put_str(partition)
        self._channels[channel_id] = record
        self._touch_channel(record, now)
        self._journal(OP_ADD_CHANNEL, enc.to_bytes())
        return record.copy()

    def delete_channel(self, channel_id: str, now: float) -> None:
        """Remove a channel; its attributes' utimes go current."""
        record = self._channels.pop(channel_id, None)
        if record is None:
            raise AuthorizationError(f"unknown channel: {channel_id}")
        for attr in record.attributes:
            self._attribute_list.add(attr.with_utime(now))
        self._push()
        self._journal(
            OP_DELETE_CHANNEL,
            Encoder().put_str(channel_id).put_f64(now).to_bytes(),
        )

    def set_channel_attribute(self, channel_id: str, attribute: Attribute, now: float) -> None:
        """Add or replace one channel attribute."""
        record = self._channels.get(channel_id)
        if record is None:
            raise AuthorizationError(f"unknown channel: {channel_id}")
        record.attributes.add(attribute)
        self._touch_channel(record, now)
        enc = Encoder()
        enc.put_str(channel_id)
        attribute.encode(enc)
        enc.put_f64(now)
        self._journal(OP_SET_ATTRIBUTE, enc.to_bytes())

    def remove_channel_attribute(
        self, channel_id: str, name: str, value: str, now: float
    ) -> bool:
        """Remove one channel attribute; True if present."""
        record = self._channels.get(channel_id)
        if record is None:
            raise AuthorizationError(f"unknown channel: {channel_id}")
        removed = record.attributes.remove(name, value)
        if removed:
            self._attribute_list.add(
                Attribute(name=name, value=value, utime=now)
            )
            self._touch_channel(record, now)
            enc = Encoder()
            enc.put_str(channel_id)
            enc.put_str(name)
            enc.put_str(value)
            enc.put_f64(now)
            self._journal(OP_REMOVE_ATTRIBUTE, enc.to_bytes())
        return removed

    def add_policy(self, channel_id: str, policy: Policy, now: float) -> None:
        """Attach a policy to a channel."""
        record = self._channels.get(channel_id)
        if record is None:
            raise AuthorizationError(f"unknown channel: {channel_id}")
        record.policies.append(policy)
        self._touch_channel(record, now)
        enc = Encoder()
        enc.put_str(channel_id)
        policy.encode(enc)
        enc.put_f64(now)
        self._journal(OP_ADD_POLICY, enc.to_bytes())

    def remove_policy(self, channel_id: str, label: str, now: float) -> bool:
        """Remove policies by label; True if any removed."""
        record = self._channels.get(channel_id)
        if record is None:
            raise AuthorizationError(f"unknown channel: {channel_id}")
        before = len(record.policies)
        record.policies = [p for p in record.policies if p.label != label]
        changed = len(record.policies) != before
        if changed:
            self._touch_channel(record, now)
            self._journal(
                OP_REMOVE_POLICY,
                Encoder().put_str(channel_id).put_str(label).put_f64(now).to_bytes(),
            )
        return changed

    def move_channel_partition(
        self, channel_id: str, partition: str, address: str, now: float
    ) -> None:
        """Re-home a channel onto another Channel Listing Partition.

        Section V's popularity escape hatch: "a very popular channel
        can be put in a partition of its own and served by a farm of
        Channel Managers."  The move updates the channel description
        (partition + manager address) and bumps utimes, so clients
        pick up the new routing at their next ticket renewal.
        """
        record = self._channels.get(channel_id)
        if record is None:
            raise AuthorizationError(f"unknown channel: {channel_id}")
        record.partition = partition
        record.channel_manager_addr = address
        self._touch_channel(record, now)
        self._journal(
            OP_MOVE_PARTITION,
            Encoder().put_str(channel_id).put_str(partition).put_str(address)
            .put_f64(now).to_bytes(),
        )

    def set_channel_manager(self, channel_id: str, address: str, now: float) -> None:
        """Record the Channel Manager farm serving this channel."""
        record = self._channels.get(channel_id)
        if record is None:
            raise AuthorizationError(f"unknown channel: {channel_id}")
        record.channel_manager_addr = address
        self._touch_channel(record, now)
        self._journal(
            OP_SET_CHANNEL_MANAGER,
            Encoder().put_str(channel_id).put_str(address).put_f64(now).to_bytes(),
        )

    # ------------------------------------------------------------------
    # The paper's blackout idiom, packaged (Section IV-A)
    # ------------------------------------------------------------------

    def schedule_blackout(
        self,
        channel_id: str,
        start: float,
        end: float,
        now: float,
        priority: int = 100,
        label: str = "blackout",
    ) -> None:
        """Black out a channel for [start, end].

        Creates a channel attribute ``Region=ANY`` valid only inside
        the window, and a high-priority ``Region=ANY -> REJECT`` policy
        backed by it.  During the window the policy matches every user
        (all users hold some Region) and rejects them; outside it the
        backing attribute is invalid and the policy is dormant.
        """
        if end <= start:
            raise ValueError("blackout end must follow start")
        self.set_channel_attribute(
            channel_id,
            Attribute(name=ATTR_REGION, value=VALUE_ANY, stime=start, etime=end),
            now,
        )
        self.add_policy(
            channel_id,
            Policy.of(
                priority=priority,
                # Pinned to this blackout's window so co-scheduled
                # rules sharing Region=ANY do not cross-activate.
                conditions=[
                    PolicyCondition(
                        name=ATTR_REGION, value=VALUE_ANY, stime=start, etime=end
                    )
                ],
                action=Decision.REJECT,
                label=label,
            ),
            now,
        )

    def cancel_blackout(self, channel_id: str, now: float, label: str = "blackout") -> bool:
        """Remove a scheduled blackout's policy (attribute simply expires)."""
        return self.remove_policy(channel_id, label, now)

    # ------------------------------------------------------------------
    # Durability (see repro.store.journal): the CPM journals
    # *operations*.  ``recover`` replays them with their original
    # ``now`` stamps, so every utime in the recovered Channel Attribute
    # List is exactly what it was before the crash -- utimes never
    # regress, and clients' change-detection keeps working across the
    # restart.  Listeners and client-access keys are runtime wiring,
    # re-added by the deployment after recovery.
    # ------------------------------------------------------------------

    def _snapshot_state(self) -> bytes:
        enc = Encoder()
        enc.put_u32(len(self._channels))
        for cid in sorted(self._channels):
            enc.put_bytes(self._channels[cid].to_bytes())
        self._attribute_list.encode(enc)
        return enc.to_bytes()

    def _restore_state(self, state: bytes) -> None:
        dec = Decoder(state)
        self._channels = {}
        for _ in range(dec.get_u32()):
            record = ChannelRecord.from_bytes(dec.get_view())
            self._channels[record.channel_id] = record
        self._attribute_list = AttributeSet.decode(dec)
        dec.finish()

    def _apply_record(self, op: int, body: bytes) -> None:
        """Replay one journaled operation with its original timestamp."""
        dec = Decoder(body)
        if op == OP_ADD_CHANNEL:
            channel_id = dec.get_str()
            now = dec.get_f64()
            attributes = AttributeSet.decode(dec)
            policies = [Policy.decode(dec) for _ in range(dec.get_u32())]
            partition = dec.get_str()
            self.add_channel(
                channel_id, now, attributes=attributes,
                policies=policies, partition=partition,
            )
        elif op == OP_DELETE_CHANNEL:
            self.delete_channel(dec.get_str(), dec.get_f64())
        elif op == OP_SET_ATTRIBUTE:
            channel_id = dec.get_str()
            attribute = Attribute.decode(dec)
            self.set_channel_attribute(channel_id, attribute, dec.get_f64())
        elif op == OP_REMOVE_ATTRIBUTE:
            self.remove_channel_attribute(
                dec.get_str(), dec.get_str(), dec.get_str(), dec.get_f64()
            )
        elif op == OP_ADD_POLICY:
            channel_id = dec.get_str()
            policy = Policy.decode(dec)
            self.add_policy(channel_id, policy, dec.get_f64())
        elif op == OP_REMOVE_POLICY:
            self.remove_policy(dec.get_str(), dec.get_str(), dec.get_f64())
        elif op == OP_MOVE_PARTITION:
            self.move_channel_partition(
                dec.get_str(), dec.get_str(), dec.get_str(), dec.get_f64()
            )
        elif op == OP_SET_CHANNEL_MANAGER:
            self.set_channel_manager(dec.get_str(), dec.get_str(), dec.get_f64())
        else:
            raise ProtocolError(f"unknown WAL op type {op}")
        dec.finish()
