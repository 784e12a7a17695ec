"""The User Manager: authentication, UserDB, and User Ticket issuance.

Implements the login protocol of Section IV-F1 (Fig. 4a) in its
stateless-farm form (Section V): the LOGIN1 server packs everything
the LOGIN2 server needs into a MAC'd challenge token, so the two
rounds may land on different physical instances sharing only the farm
keypair and farm secret.

Login flow
----------
LOGIN1  client sends email + its public key.  The UM replies with
        (a) a challenge token carrying a *commitment* (hash) of a
        fresh nonce, and (b) a blob encrypted under the secure hash of
        the user's password (``shp``) containing the nonce itself, the
        attestation checksum parameters, and the server clock.
LOGIN2  the client -- having proven it knows the password by
        decrypting the blob -- returns the nonce, the checksum it
        computed over its own binary with the given parameters, and
        its version, all signed with its private key.  The UM checks
        the commitment (password proof), the signature (key
        possession proof), the checksum against the registered client
        image (attestation), and the version floor, then issues the
        signed User Ticket.

Checksum parameters are *derived* from the nonce commitment with the
farm secret rather than stored, keeping LOGIN2 stateless.
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.accounts import Subscription, UserAccount
from repro.core.attributes import (
    ATTR_AS,
    ATTR_NETADDR,
    ATTR_REGION,
    ATTR_SUBSCRIPTION,
    ATTR_VERSION,
    Attribute,
    AttributeSet,
    VALUE_ALL,
    VALUE_ANY,
    VALUE_NONE,
)
from repro.core.challenge import Challenge, ChallengeIssuer
from repro.core.protocol import (
    Login1Request,
    Login1Response,
    Login2Request,
    Login2Response,
)
from repro.core.tickets import UserTicket
from repro.crypto.drbg import HmacDrbg
from repro.crypto.rsa import RsaPrivateKey, RsaPublicKey
from repro.crypto.stream import SymmetricKey
from repro.errors import (
    AccountError,
    AttestationError,
    ChallengeError,
    ProtocolError,
    SignatureError,
)
from repro.store.journal import Journaled
from repro.trace.span import Tracer, maybe_span
from repro.util.wire import Decoder, Encoder

_NONCE_LEN = 16
_SALT_LEN = 8
_DEFAULT_CHECKSUM_WINDOW = 4096

#: Durable-store record types (see :mod:`repro.store`).
REC_USER_RECORD = 1
REC_CLIENT_IMAGE = 2
REC_ATTRIBUTE_LIST = 3
REC_LOGIN_ISSUED = 4
REC_USER_REMOVED = 5


@dataclass
class ChecksumParams:
    """Parameters for the remote-attestation checksum (Section IV-F1)."""

    salt: bytes
    offset_seed: int
    length: int

    def compute(self, image: bytes) -> bytes:
        """Checksum of ``image`` under these parameters.

        The offset seed is reduced modulo the image's usable window so
        both sides (whose only shared context is the parameters and
        the image) agree without exchanging the image length.
        """
        if not image:
            raise AttestationError("empty client image")
        length = min(self.length, len(image))
        span = len(image) - length + 1
        offset = self.offset_seed % span
        return hashlib.sha256(self.salt + image[offset : offset + length]).digest()


@dataclass
class UserRecord:
    """One row of the UserDB."""

    user_id: int
    email: str
    shp: bytes
    account: UserAccount

    def encode(self, enc: Encoder) -> None:
        """Append the canonical encoding (the WAL/snapshot row form)."""
        enc.put_u64(self.user_id)
        enc.put_str(self.email)
        enc.put_bytes(self.shp)
        enc.put_f64(self.account.balance)
        enc.put_bool(self.account.suspended)
        enc.put_u32(len(self.account.subscriptions))
        for subscription in self.account.subscriptions:
            enc.put_str(subscription.package_id)
            enc.put_opt_f64(subscription.stime)
            enc.put_opt_f64(subscription.etime)

    @classmethod
    def decode(cls, dec: Decoder) -> "UserRecord":
        """Rebuild a row (with a detached account image) from ``dec``."""
        user_id = dec.get_u64()
        email = dec.get_str()
        shp = dec.get_bytes()
        balance = dec.get_f64()
        suspended = dec.get_bool()
        subscriptions = [
            Subscription(
                package_id=dec.get_str(),
                stime=dec.get_opt_f64(),
                etime=dec.get_opt_f64(),
            )
            for _ in range(dec.get_u32())
        ]
        account = UserAccount(
            email=email,
            shp=shp,
            subscriptions=subscriptions,
            balance=balance,
            suspended=suspended,
        )
        return cls(user_id=user_id, email=email, shp=shp, account=account)


class UserManager(Journaled):
    """A logical User Manager (possibly a farm of instances).

    Parameters
    ----------
    signing_key:
        The farm's shared keypair; its public half verifies every User
        Ticket downstream.
    farm_secret:
        Shared secret authenticating challenge tokens across the farm.
    drbg:
        Source of nonces and user-id randomization.
    geo:
        The GeoIP/AS database used to derive Region and AS attributes.
    ticket_lifetime:
        Default User Ticket lifetime in seconds.  The paper recommends
        "less than the average length of a program in the channel";
        the production default modelled here is 30 minutes.
    min_version:
        Minimum acceptable client version string (lexicographic parts
        compare, e.g. "4.0.5").
    domain:
        Authentication Domain name this manager serves (Section V).
    """

    def __init__(
        self,
        signing_key: RsaPrivateKey,
        farm_secret: bytes,
        drbg: HmacDrbg,
        geo,
        ticket_lifetime: float = 1800.0,
        min_version: str = "1.0.0",
        domain: str = "default",
        challenge_max_age: float = 60.0,
        user_id_start: int = 1,
        user_id_stride: int = 1,
    ) -> None:
        self._key = signing_key
        self._secret = farm_secret
        self._drbg = drbg
        self._geo = geo
        self.ticket_lifetime = ticket_lifetime
        self.min_version = min_version
        self.domain = domain
        self._issuer = ChallengeIssuer(farm_secret, drbg.fork(b"um-challenge"), challenge_max_age)
        self._users_by_email: Dict[str, UserRecord] = {}
        self._users_by_id: Dict[int, UserRecord] = {}
        # Interleaved id spaces keep UserINs globally unique when
        # multiple Authentication Domains feed the same Channel
        # Managers (whose viewing log is keyed by UserIN).
        if user_id_start < 1 or user_id_stride < 1:
            raise ValueError("user id start and stride must be >= 1")
        self._next_user_id = user_id_start
        self._user_id_stride = user_id_stride
        self._channel_attribute_list = AttributeSet()
        self._attr_utime_index: Dict[str, List[Attribute]] = {}
        self._client_images: Dict[str, bytes] = {}
        self.logins_issued = 0
        #: Shared tracer, attached by Deployment.enable_tracing().
        self.tracer: Optional[Tracer] = None

    @property
    def public_key(self) -> RsaPublicKey:
        """The farm's ticket-verification key."""
        return self._key.public_key

    # ------------------------------------------------------------------
    # Feeds from other managers
    # ------------------------------------------------------------------

    def sync_account(self, account: UserAccount) -> UserRecord:
        """Account Manager push: create or refresh a UserDB row.

        First sync "generates a unique user identification number
        (UserIN) ... and creates a new entry in its user database"
        (Section IV-B).
        """
        record = self._users_by_email.get(account.email)
        if record is None:
            # Replicas share the user dicts but not the id counter --
            # skip ids another instance already allocated.
            while self._next_user_id in self._users_by_id:
                self._next_user_id += self._user_id_stride
            record = UserRecord(
                user_id=self._next_user_id,
                email=account.email,
                shp=account.shp,
                account=account,
            )
            self._next_user_id += self._user_id_stride
            self._users_by_email[account.email] = record
            self._users_by_id[record.user_id] = record
        else:
            record.shp = account.shp
            record.account = account
        if self._store is not None:
            enc = Encoder()
            record.encode(enc)
            self._journal(REC_USER_RECORD, enc.to_bytes())
        return record

    def receive_channel_attribute_list(self, attributes: AttributeSet) -> None:
        """Channel Policy Manager push (Section IV-A)."""
        self._channel_attribute_list = attributes
        self._rebuild_attr_index()
        if self._store is not None:
            enc = Encoder()
            attributes.encode(enc)
            self._journal(REC_ATTRIBUTE_LIST, enc.to_bytes())

    def _rebuild_attr_index(self) -> None:
        """Per-name index over utime-carrying channel attributes.

        ``_stamp`` runs once per generated user attribute on every
        LOGIN2; scanning the whole collated Channel Attribute List
        each time is O(channels) per login.  Only entries that carry a
        utime matter to stamping, and only same-name entries can ever
        match, so index exactly those.  Rebuilt on every CPM push (the
        push replaces the list wholesale).
        """
        index: Dict[str, List[Attribute]] = {}
        for entry in self._channel_attribute_list:
            if entry.utime is not None:
                index.setdefault(entry.name, []).append(entry)
        self._attr_utime_index = index

    def share_state_with(self, other: "UserManager") -> None:
        """Initialize a fresh replica of this farm.

        Section V's farm contract: instances share one name, one key
        pair, and one user database.  The user dicts and image registry
        are shared *by reference* (a login handled by any replica is
        visible to all); the Channel Attribute List is copied, since
        CPM pushes replace it wholesale per subscribed instance.
        """
        other._users_by_email = self._users_by_email
        other._users_by_id = self._users_by_id
        other._client_images = self._client_images
        other._channel_attribute_list = self._channel_attribute_list
        other._rebuild_attr_index()
        other._next_user_id = self._next_user_id

    def register_client_image(self, version: str, image: bytes) -> None:
        """Register a released client binary for attestation checks."""
        if not image:
            raise ValueError("client image must be non-empty")
        self._client_images[version] = bytes(image)
        if self._store is not None:
            enc = Encoder()
            enc.put_str(version)
            enc.put_bytes(self._client_images[version])
            self._journal(REC_CLIENT_IMAGE, enc.to_bytes())

    # ------------------------------------------------------------------
    # LOGIN1
    # ------------------------------------------------------------------

    def login1(self, request: Login1Request, now: float) -> Login1Response:
        """Handle the first login round."""
        with maybe_span(self.tracer, "UM.LOGIN1", now=now, kind="server"):
            return self._login1(request, now)

    def _login1(self, request: Login1Request, now: float) -> Login1Response:
        record = self._users_by_email.get(request.email)
        if record is None:
            raise AccountError(f"unknown user: {request.email}")
        if record.account.suspended:
            raise AccountError(f"account suspended: {request.email}")
        nonce = self._drbg.generate(_NONCE_LEN)
        commitment = hashlib.sha256(b"commit|" + nonce).digest()
        token = self._issuer.issue(subject=request.email, now=now)
        # Rebind the token's nonce slot to the commitment: LOGIN2 can
        # then check the revealed nonce without the farm storing it.
        token = Challenge(
            subject=token.subject,
            nonce=commitment,
            issued_at=token.issued_at,
            mac=self._commitment_mac(request.email, commitment, token.issued_at),
        )
        params = self._derive_checksum_params(commitment)
        blob_nonce = int.from_bytes(self._drbg.generate(8), "big")
        enc = Encoder()
        enc.put_bytes(nonce)
        enc.put_bytes(params.salt)
        enc.put_u32(params.offset_seed)
        enc.put_u32(params.length)
        enc.put_f64(now)  # timing information for client clock sync
        blob_key = SymmetricKey(material=record.shp[:16])
        blob = blob_key.encrypt(enc.to_bytes(), nonce=blob_nonce, aad=b"login1")
        return Login1Response(token=token, encrypted_blob=blob, blob_nonce=blob_nonce)

    def _commitment_mac(self, email: str, commitment: bytes, issued_at: float) -> bytes:
        enc = Encoder()
        enc.put_str(email)
        enc.put_bytes(commitment)
        enc.put_f64(issued_at)
        return hmac.new(self._secret, b"umtok|" + enc.to_bytes(), hashlib.sha256).digest()

    def _derive_checksum_params(self, commitment: bytes) -> ChecksumParams:
        """Derive attestation parameters from the commitment (stateless)."""
        raw = hmac.new(self._secret, b"cksum|" + commitment, hashlib.sha256).digest()
        return ChecksumParams(
            salt=raw[:_SALT_LEN],
            offset_seed=int.from_bytes(raw[_SALT_LEN : _SALT_LEN + 4], "big"),
            length=_DEFAULT_CHECKSUM_WINDOW,
        )

    # ------------------------------------------------------------------
    # LOGIN2
    # ------------------------------------------------------------------

    def login2(
        self, request: Login2Request, observed_addr: str, now: float
    ) -> Login2Response:
        """Handle the second login round and issue the User Ticket."""
        with maybe_span(self.tracer, "UM.LOGIN2", now=now, kind="server"):
            return self._login2(request, observed_addr, now)

    def _login2(
        self, request: Login2Request, observed_addr: str, now: float
    ) -> Login2Response:
        record = self._users_by_email.get(request.email)
        if record is None:
            raise AccountError(f"unknown user: {request.email}")
        if record.account.suspended:
            raise AccountError(f"account suspended: {request.email}")

        token = request.token
        expected_mac = self._commitment_mac(request.email, token.nonce, token.issued_at)
        if not hmac.compare_digest(expected_mac, token.mac):
            raise ChallengeError("login token MAC invalid")
        if token.subject != request.email:
            raise ChallengeError("login token subject mismatch")
        age = now - token.issued_at
        if age < 0 or age > self._issuer.max_age:
            raise ChallengeError(f"login token expired (age {age:.1f}s)")

        commitment = hashlib.sha256(b"commit|" + request.nonce).digest()
        if not hmac.compare_digest(commitment, token.nonce):
            raise ChallengeError("nonce does not match commitment (wrong password?)")

        signed_payload = request.nonce + request.checksum + request.version.encode("utf-8")
        try:
            request.client_public_key.verify(signed_payload, request.signature)
        except SignatureError as exc:
            raise ChallengeError("login response signature invalid") from exc

        if _version_tuple(request.version) < _version_tuple(self.min_version):
            raise ProtocolError(
                f"client version {request.version} below minimum {self.min_version}"
            )

        image = self._client_images.get(request.version)
        if image is None:
            raise AttestationError(f"unknown client version: {request.version}")
        params = self._derive_checksum_params(token.nonce)
        expected_checksum = params.compute(image)
        if not hmac.compare_digest(expected_checksum, request.checksum):
            raise AttestationError("client image checksum mismatch")

        attributes = self._build_attributes(record, observed_addr, request.version, now)
        expire = now + self.ticket_lifetime
        soonest = attributes.soonest_etime()
        if soonest is not None:
            expire = min(expire, soonest)
        ticket = UserTicket(
            user_id=record.user_id,
            client_public_key=request.client_public_key,
            start_time=now,
            expire_time=expire,
            attributes=attributes,
        ).signed(self._key)
        self.logins_issued += 1
        if self._store is not None:
            body = Encoder().put_u64(record.user_id).put_f64(now).to_bytes()
            self._journal(REC_LOGIN_ISSUED, body)
        return Login2Response(ticket=ticket, server_time=now)

    # ------------------------------------------------------------------
    # Attribute generation (Section IV-B, Table I)
    # ------------------------------------------------------------------

    def _build_attributes(
        self, record: UserRecord, observed_addr: str, version: str, now: float
    ) -> AttributeSet:
        """Generate user attributes from the three data sources.

        (1) account/subscription info, (2) connection info, (3) the
        Channel Attribute List (for utime stamping).
        """
        attrs = AttributeSet()
        attrs.add(self._stamp(Attribute(name=ATTR_NETADDR, value=observed_addr)))
        geo_record = self._geo.lookup(observed_addr)
        if geo_record is not None:
            attrs.add(self._stamp(Attribute(name=ATTR_REGION, value=geo_record.region)))
            attrs.add(self._stamp(Attribute(name=ATTR_AS, value=str(geo_record.asn))))
        attrs.add(self._stamp(Attribute(name=ATTR_VERSION, value=version)))
        # Any subscription overlapping the ticket's lifetime rides
        # along with its own validity window; ones starting mid-ticket
        # (a pay-per-view program) become valid exactly at their stime.
        for subscription in record.account.subscriptions_overlapping(
            now, now + self.ticket_lifetime
        ):
            attrs.add(
                self._stamp(
                    Attribute(
                        name=ATTR_SUBSCRIPTION,
                        value=subscription.package_id,
                        stime=subscription.stime,
                        etime=subscription.etime,
                    )
                )
            )
        return attrs

    def _stamp(self, attribute: Attribute) -> Attribute:
        """Copy the matching Channel Attribute List utime onto ``attribute``.

        An exact (name, value) entry's utime applies; additionally any
        special-valued (ANY/ALL/NONE) channel attribute of the same
        name bumps the utime, so e.g. a blackout expressed as
        ``Region=ANY`` still prompts clients to refresh their Channel
        List.
        """
        best: Optional[float] = None
        for entry in self._attr_utime_index.get(attribute.name, ()):
            if entry.value == attribute.value or entry.value in (
                VALUE_ANY,
                VALUE_ALL,
                VALUE_NONE,
            ):
                if best is None or entry.utime > best:
                    best = entry.utime
        if best is None:
            return attribute
        return attribute.with_utime(best)

    # ------------------------------------------------------------------
    # Introspection helpers
    # ------------------------------------------------------------------

    def user_by_email(self, email: str) -> Optional[UserRecord]:
        """UserDB lookup by email."""
        return self._users_by_email.get(email)

    def user_count(self) -> int:
        """Number of UserDB rows."""
        return len(self._users_by_email)

    # ------------------------------------------------------------------
    # Migration (driven by repro.sharding.ReshardCoordinator)
    # ------------------------------------------------------------------

    def export_users(self, emails: List[str]) -> List[UserRecord]:
        """Detached copies of UserDB rows for migration to another shard.

        Copies go through the canonical wire form, so what the target
        imports is exactly what a WAL replay would have produced.
        Unknown emails are skipped (the caller diffs against the
        directory, not against this shard's actual contents).
        """
        exported: List[UserRecord] = []
        for email in emails:
            record = self._users_by_email.get(email)
            if record is None:
                continue
            enc = Encoder()
            record.encode(enc)
            exported.append(UserRecord.decode(Decoder(enc.to_bytes())))
        return exported

    def import_users(self, records: List[UserRecord]) -> int:
        """Adopt migrated UserDB rows, preserving their UserINs.

        The UserIN keys the viewing activity log, so an imported row
        keeps the id its source domain allocated.  If this manager
        already holds the email under a *different* id (every domain
        replicates the full account base with its own id space), that
        stale row is dropped -- and journaled as removed, so a
        recovery cannot resurrect the obsolete id.  Idempotent:
        re-importing an identical row is a no-op upsert.
        """
        for record in records:
            stale = self._users_by_email.get(record.email)
            if stale is not None and stale.user_id != record.user_id:
                self._users_by_id.pop(stale.user_id, None)
                if self._store is not None:
                    self._journal(
                        REC_USER_REMOVED,
                        Encoder().put_u64(stale.user_id)
                        .put_str(stale.email).to_bytes(),
                    )
            self._install_record(record)
            if self._store is not None:
                enc = Encoder()
                record.encode(enc)
                self._journal(REC_USER_RECORD, enc.to_bytes())
        return len(records)

    def remove_users(self, emails: List[str]) -> int:
        """Drop UserDB rows that migrated away (post-cutover cleanup)."""
        removed = 0
        for email in emails:
            record = self._users_by_email.pop(email, None)
            if record is None:
                continue
            self._users_by_id.pop(record.user_id, None)
            removed += 1
            if self._store is not None:
                self._journal(
                    REC_USER_REMOVED,
                    Encoder().put_u64(record.user_id).put_str(email).to_bytes(),
                )
        return removed

    # ------------------------------------------------------------------
    # Durability (see repro.store.journal): the schema of what
    # ``attach_store`` journals and ``recover`` replays.  Challenge
    # tokens and checksum parameters are both derived from the farm
    # secret, which ``recover`` is handed back, so in-flight LOGIN1
    # tokens issued before a crash complete LOGIN2 on the recovered farm.
    # ------------------------------------------------------------------

    def _snapshot_state(self) -> bytes:
        enc = Encoder()
        enc.put_str(self.domain)
        enc.put_u64(self._next_user_id)
        enc.put_u32(len(self._users_by_id))
        for user_id in sorted(self._users_by_id):
            self._users_by_id[user_id].encode(enc)
        self._channel_attribute_list.encode(enc)
        enc.put_u32(len(self._client_images))
        for version in sorted(self._client_images):
            enc.put_str(version)
            enc.put_bytes(self._client_images[version])
        enc.put_u64(self.logins_issued)
        return enc.to_bytes()

    def _restore_state(self, state: bytes) -> None:
        dec = Decoder(state)
        domain = dec.get_str()
        if domain != self.domain:
            raise ProtocolError(
                f"store holds domain {domain!r}, manager is {self.domain!r}"
            )
        self._next_user_id = dec.get_u64()
        self._users_by_email = {}
        self._users_by_id = {}
        for _ in range(dec.get_u32()):
            self._install_record(UserRecord.decode(dec))
        self._channel_attribute_list = AttributeSet.decode(dec)
        self._rebuild_attr_index()
        self._client_images = {}
        for _ in range(dec.get_u32()):
            version = dec.get_str()
            self._client_images[version] = dec.get_bytes()
        self.logins_issued = dec.get_u64()
        dec.finish()

    def _install_record(self, record: UserRecord) -> None:
        """Upsert one replayed UserDB row, keeping id allocation ahead."""
        self._users_by_email[record.email] = record
        self._users_by_id[record.user_id] = record
        if record.user_id >= self._next_user_id:
            self._next_user_id = record.user_id + self._user_id_stride

    def _apply_record(self, rec_type: int, body: bytes) -> None:
        dec = Decoder(body)
        if rec_type == REC_USER_RECORD:
            self._install_record(UserRecord.decode(dec))
        elif rec_type == REC_CLIENT_IMAGE:
            version = dec.get_str()
            self._client_images[version] = dec.get_bytes()
        elif rec_type == REC_ATTRIBUTE_LIST:
            self._channel_attribute_list = AttributeSet.decode(dec)
            self._rebuild_attr_index()
        elif rec_type == REC_LOGIN_ISSUED:
            dec.get_u64()
            dec.get_f64()
            self.logins_issued += 1
        elif rec_type == REC_USER_REMOVED:
            user_id = dec.get_u64()
            email = dec.get_str()
            self._users_by_id.pop(user_id, None)
            current = self._users_by_email.get(email)
            if current is not None and current.user_id == user_id:
                del self._users_by_email[email]
        else:
            raise ProtocolError(f"unknown WAL record type {rec_type}")
        dec.finish()


def _version_tuple(version: str) -> Tuple[int, ...]:
    """Parse "4.0.5" into (4, 0, 5) for comparison; raises on junk."""
    try:
        return tuple(int(part) for part in version.split("."))
    except ValueError as exc:
        raise ProtocolError(f"unparseable version: {version!r}") from exc
