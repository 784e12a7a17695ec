"""The viewer's side of LOGIN / SWITCH / RENEWAL / JOIN, written once.

Each operation of Fig. 4 is a generator *script* with no I/O and no
clock.  It yields the next request as a :class:`Round`, is resumed with
the server's reply, does the client compute inline (blob decrypt,
checksum, signatures, session-key decrypt) and returns the operation's
result; priming it with ``next()`` checks the preconditions and raises
:class:`~repro.errors.ProtocolError` before anything is sent.
:data:`HANDLERS` is the only place that knows how the five server
handlers are called.

Two drivers run the scripts: :class:`repro.core.client.Client` with
direct handler calls, :class:`repro.sim.driver.AsyncClient` as chained
messages in virtual time.  ``who`` is either of them (or any object
with ``email``, ``version``, ``image``, ``public_key``, ``_key``,
``_shp``, ``user_ticket`` and ``channel_ticket``).

What stays different per driver, on purpose:

* ``Client`` resolved the User Manager itself and verifies the User
  Ticket against that endpoint's key; ``AsyncClient`` is handed an
  address and has no key to verify against.
* ``Client`` keeps the JOIN session key as a ``ParentLink`` and takes
  the bundled key updates as pushed ones; ``AsyncClient`` hands
  ``on_done`` the ``JoinAccept`` only (an async viewer cannot decrypt
  yet).
* JOIN is one round labelled like its operation: ``Client`` opens no
  round span inside the ``JOIN`` op span, ``AsyncClient`` -- whose RPC
  spans are parented explicitly -- opens one named ``JOIN1``; the
  latency sample is ``JOIN`` either way.
"""

from __future__ import annotations

from typing import Any, NamedTuple, Optional

from repro.core.challenge import answer_challenge
from repro.core.protocol import (
    JoinAccept,
    JoinReject,
    JoinRequest,
    Login1Request,
    Login2Request,
    Switch1Request,
    Switch2Request,
)
from repro.core.user_manager import ChecksumParams
from repro.crypto.stream import SymmetricKey
from repro.errors import CapacityError, ProtocolError
from repro.util.wire import Decoder

#: Names of the client compute steps, priced by ``repro.sim.costs``.
OP_LOGIN_BLOB = "login_blob"
OP_CHALLENGE_SIGN = "challenge_sign"
OP_JOIN_DECRYPT = "join_decrypt"


class Round(NamedTuple):
    """One request of a script."""

    #: Span and latency-sample name (LOGIN1, ..., RENEW2, JOIN).
    label: str
    #: Key into :data:`HANDLERS`.
    method: str
    payload: Any
    #: The ``OP_*`` name of the client compute that handling this
    #: round's reply takes; ``None`` when the reply is just the result.
    reply_cost: Optional[str]


#: ``method -> call(server, payload, observed_addr, now)``.  The
#: observed address -- what the paper's NetAddr checks key on -- is the
#: caller's connection address, as a real server reads it off the socket.
HANDLERS = {
    "login1": lambda um, payload, observed_addr, now: um.login1(payload, now),
    "login2": lambda um, payload, observed_addr, now: um.login2(
        payload, observed_addr=observed_addr, now=now
    ),
    "switch1": lambda cm, payload, observed_addr, now: cm.switch1(payload, now),
    "switch2": lambda cm, payload, observed_addr, now: cm.switch2(
        payload, observed_addr=observed_addr, now=now
    ),
    "join": lambda peer, payload, observed_addr, now: peer.handle_join(
        payload, observed_addr=observed_addr, now=now
    ),
}


def login_script(who):
    """LOGIN1 + LOGIN2 (Fig. 4a); returns ``(user_ticket, server_time)``.

    ``server_time`` is the User Manager's clock reading from the
    shp-encrypted LOGIN1 blob.  The ticket is *not* verified here: that
    needs the User Manager's key, which only a driver can have.
    """
    reply1 = yield Round(
        "LOGIN1",
        "login1",
        Login1Request(email=who.email, client_public_key=who.public_key),
        OP_LOGIN_BLOB,
    )
    plain = SymmetricKey(material=who._shp[:16]).decrypt(
        reply1.encrypted_blob, nonce=reply1.blob_nonce, aad=b"login1"
    )
    dec = Decoder(plain)
    nonce = dec.get_bytes()
    params = ChecksumParams(
        salt=dec.get_bytes(), offset_seed=dec.get_u32(), length=dec.get_u32()
    )
    server_time = dec.get_f64()
    dec.finish()
    checksum = params.compute(who.image)
    reply2 = yield Round(
        "LOGIN2",
        "login2",
        Login2Request(
            email=who.email,
            client_public_key=who.public_key,
            token=reply1.token,
            nonce=nonce,
            checksum=checksum,
            version=who.version,
            signature=who._key.sign(nonce + checksum + who.version.encode("utf-8")),
        ),
        None,
    )
    return reply2.ticket, server_time


def switch_script(who, channel_id=None, expiring=None):
    """SWITCH1 + SWITCH2 (Fig. 4b); returns the ``Switch2Response``.

    With ``expiring`` (the held Channel Ticket) instead of
    ``channel_id`` this is the renewal of Section IV-D: same exchange,
    other request fields, rounds labelled RENEW1 / RENEW2.
    """
    if who.user_ticket is None:
        raise ProtocolError("not logged in")
    if channel_id is None and expiring is None:
        raise ProtocolError("nothing to renew")
    label1, label2 = ("SWITCH1", "SWITCH2") if expiring is None else ("RENEW1", "RENEW2")
    reply1 = yield Round(
        label1,
        "switch1",
        Switch1Request(
            user_ticket=who.user_ticket, channel_id=channel_id, expiring_ticket=expiring
        ),
        OP_CHALLENGE_SIGN,
    )
    return (
        yield Round(
            label2,
            "switch2",
            Switch2Request(
                user_ticket=who.user_ticket,
                token=reply1.token,
                signature=answer_challenge(reply1.token, who._key),
                channel_id=channel_id,
                expiring_ticket=expiring,
            ),
            None,
        )
    )


def join_script(who):
    """The one-round JOIN (Fig. 4c); returns ``(JoinAccept, session_key)``.

    The session key arrives encrypted to our public key (Section IV-E).
    """
    if who.channel_ticket is None:
        raise ProtocolError("no channel ticket to join with")
    reply = yield Round(
        "JOIN", "join", JoinRequest(channel_ticket=who.channel_ticket), OP_JOIN_DECRYPT
    )
    if isinstance(reply, JoinReject):
        raise CapacityError(f"join rejected by {reply.peer_id}: {reply.reason}")
    assert isinstance(reply, JoinAccept)
    return reply, SymmetricKey(material=who._key.decrypt(reply.encrypted_session_key))
