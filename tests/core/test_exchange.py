"""The protocol scripts, driven by hand: no Client, no simulator.

A script yields :class:`~repro.core.exchange.Round` requests and is
resumed with replies; here the replies come straight from a
``Deployment``'s managers through the :data:`HANDLERS` table (or are
built by hand, for the replies a healthy server never sends).
"""

from types import SimpleNamespace

import pytest

from repro.core.accounts import secure_hash_password
from repro.core.exchange import (
    HANDLERS,
    OP_CHALLENGE_SIGN,
    OP_JOIN_DECRYPT,
    OP_LOGIN_BLOB,
    join_script,
    login_script,
    switch_script,
)
from repro.core.protocol import (
    JoinAccept,
    JoinReject,
    JoinRequest,
    Login1Request,
    Login1Response,
    Login2Request,
    Switch1Request,
    Switch2Request,
)
from repro.crypto.drbg import HmacDrbg
from repro.crypto.rsa import generate_keypair
from repro.crypto.stream import SymmetricKey
from repro.deployment import Deployment
from repro.errors import CapacityError, DecryptionError, ProtocolError, ReproError
from repro.util.wire import WireError

EMAIL = "script@example.org"
KEY = generate_keypair(HmacDrbg(b"exchange-tests"), bits=512)


@pytest.fixture
def deployment():
    deployment = Deployment(seed=23, channel_ticket_lifetime=60.0)
    deployment.add_free_channel("news", regions=["CH"])
    deployment.accounts.register(EMAIL, "pw")
    return deployment


@pytest.fixture
def who(deployment):
    """The least a script needs of a viewer (see the module docstring
    of ``repro.core.exchange``)."""
    return SimpleNamespace(
        email=EMAIL,
        version=deployment.client_version,
        image=deployment.client_image,
        public_key=KEY.public_key,
        _key=KEY,
        _shp=secure_hash_password(EMAIL, "pw"),
        net_addr=deployment.geo.random_address("CH", deployment.rng),
        user_ticket=None,
        channel_ticket=None,
    )


def run(script, server, who, now, seen):
    """Drive ``script`` to its result, noting each request in ``seen``."""
    request = next(script)
    try:
        while True:
            seen.append(request)
            reply = HANDLERS[request.method](server, request.payload, who.net_addr, now)
            request = script.send(reply)
    except StopIteration as done:
        return done.value


def shape(seen):
    return [(r.label, r.method, type(r.payload), r.reply_cost) for r in seen]


def logged_in(deployment, who):
    um = deployment.user_managers["domain-0"]
    who.user_ticket, _ = run(login_script(who), um, who, 0.0, [])
    return who


class TestLoginScript:
    def test_rounds_and_result(self, deployment, who):
        um = deployment.user_managers["domain-0"]
        seen = []
        ticket, server_time = run(login_script(who), um, who, 5.0, seen)
        assert shape(seen) == [
            ("LOGIN1", "login1", Login1Request, OP_LOGIN_BLOB),
            ("LOGIN2", "login2", Login2Request, None),
        ]
        assert server_time == 5.0
        ticket.verify(um.public_key, now=5.0)

    def test_wrong_password_fails_in_the_blob_decrypt(self, deployment, who):
        who._shp = secure_hash_password(EMAIL, "typo")
        script = login_script(who)
        reply = deployment.user_managers["domain-0"].login1(next(script).payload, 0.0)
        with pytest.raises(DecryptionError):
            script.send(reply)

    def test_trailing_bytes_in_the_blob_are_rejected(self, deployment, who):
        script = login_script(who)
        genuine = deployment.user_managers["domain-0"].login1(next(script).payload, 0.0)
        blob_key = SymmetricKey(material=who._shp[:16])
        plain = blob_key.decrypt(
            genuine.encrypted_blob, nonce=genuine.blob_nonce, aad=b"login1"
        )
        padded = Login1Response(
            token=genuine.token,
            encrypted_blob=blob_key.encrypt(
                plain + b"\x00", nonce=genuine.blob_nonce, aad=b"login1"
            ),
            blob_nonce=genuine.blob_nonce,
        )
        assert issubclass(WireError, ReproError)  # so AsyncClient routes it to on_fail
        with pytest.raises(WireError):
            script.send(padded)


class TestSwitchScript:
    def test_switch_rounds_and_result(self, deployment, who):
        cm = deployment.channel_manager_for("news")
        seen = []
        response = run(
            switch_script(logged_in(deployment, who), channel_id="news"),
            cm, who, 1.0, seen,
        )
        assert shape(seen) == [
            ("SWITCH1", "switch1", Switch1Request, OP_CHALLENGE_SIGN),
            ("SWITCH2", "switch2", Switch2Request, None),
        ]
        assert all(r.payload.channel_id == "news" for r in seen)
        assert all(r.payload.expiring_ticket is None for r in seen)
        response.ticket.verify(cm.public_key, now=1.0)
        assert not response.ticket.renewal

    def test_renewal_is_the_same_script_with_the_expiring_ticket(
        self, deployment, who
    ):
        cm = deployment.channel_manager_for("news")
        logged_in(deployment, who)
        held = run(switch_script(who, channel_id="news"), cm, who, 1.0, []).ticket
        seen = []
        response = run(switch_script(who, expiring=held), cm, who, 30.0, seen)
        assert shape(seen) == [
            ("RENEW1", "switch1", Switch1Request, OP_CHALLENGE_SIGN),
            ("RENEW2", "switch2", Switch2Request, None),
        ]
        assert all(r.payload.expiring_ticket is held for r in seen)
        assert all(r.payload.channel_id is None for r in seen)
        assert response.ticket.renewal and response.ticket.channel_id == "news"

    def test_preconditions_raise_before_anything_is_sent(self, deployment, who):
        with pytest.raises(ProtocolError):
            next(switch_script(who, channel_id="news"))  # not logged in
        with pytest.raises(ProtocolError):
            next(switch_script(logged_in(deployment, who)))  # nothing to renew
        with pytest.raises(ProtocolError):
            next(join_script(who))  # no channel ticket


class TestJoinScript:
    @pytest.fixture
    def ticketed(self, deployment, who):
        cm = deployment.channel_manager_for("news")
        logged_in(deployment, who)
        who.channel_ticket = run(
            switch_script(who, channel_id="news"), cm, who, 1.0, []
        ).ticket
        return who

    def test_one_round_and_the_session_key(self, deployment, ticketed):
        seeder = deployment.create_client("seed@example.org", "pw", region="CH")
        seeder.login(now=0.0)
        parent = deployment.watch(seeder, "news", now=0.0, capacity=4)
        seen = []
        accept, session_key = run(join_script(ticketed), parent, ticketed, 2.0, seen)
        assert shape(seen) == [("JOIN", "join", JoinRequest, OP_JOIN_DECRYPT)]
        assert isinstance(accept, JoinAccept) and accept.peer_id == parent.peer_id
        link = parent.children[ticketed.channel_ticket.user_id]
        assert session_key.material == link.session_key.material

    def test_reject_raises_capacity_error_naming_the_peer(self, ticketed):
        script = join_script(ticketed)
        next(script)
        with pytest.raises(CapacityError, match="join rejected by p7: full"):
            script.send(JoinReject(peer_id="p7", reason="full"))
