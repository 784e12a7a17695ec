"""Threat playbook: Section IV-G, scenario by scenario.

Runs each attack from the paper's threat discussion against the real
implementation and reports where it is stopped.

Run:  python -m repro threats
"""

import dataclasses

from repro import Deployment
from repro.core.challenge import answer_challenge
from repro.core.protocol import JoinAccept, JoinRequest, Switch1Request, Switch2Request
from repro.core.tickets import ChannelTicket, UserTicket
from repro.errors import (
    AttestationError,
    ChallengeError,
    DecryptionError,
    RenewalRefusedError,
    SignatureError,
)


def scenario(title):
    print(f"\n=== {title} ===")


def main() -> None:
    deployment = Deployment(seed=1337)
    deployment.add_free_channel("target", regions=["CH"])

    victim = deployment.create_client("victim@example.org", "pw", region="CH")
    victim.login(now=0.0)
    victim_peer = deployment.watch(victim, "target", now=0.0)
    attacker = deployment.create_client("attacker@example.org", "pw", region="CH")

    scenario("1. Stolen User Ticket, no private key")
    stolen_ut = UserTicket.from_bytes(victim.user_ticket.to_bytes())
    manager = deployment.channel_manager_for("target")
    token = manager.switch1(
        Switch1Request(user_ticket=stolen_ut, channel_id="target"), now=1.0
    ).token
    try:
        manager.switch2(
            Switch2Request(
                user_ticket=stolen_ut,
                token=token,
                signature=answer_challenge(token, attacker.private_key),
                channel_id="target",
            ),
            observed_addr=stolen_ut.net_addr,
            now=1.0,
        )
    except ChallengeError as exc:
        print(f"STOPPED at nonce challenge: {exc}")

    scenario("2. Stolen Channel Ticket replayed at an honest peer")
    stolen_ct = ChannelTicket.from_bytes(victim.channel_ticket.to_bytes())
    result = victim_peer.handle_join(
        JoinRequest(channel_ticket=stolen_ct),
        observed_addr=attacker.net_addr,
        now=1.0,
    )
    print(f"STOPPED at NetAddr binding: {result.reason}")

    scenario("3. Full address spoofing: join accepted, content still dark")
    honest = deployment.create_client("honest@example.org", "pw", region="CH")
    honest.login(now=0.0)
    honest_peer = deployment.watch(honest, "target", now=0.0)
    accept = honest_peer.handle_join(
        JoinRequest(channel_ticket=stolen_ct),
        observed_addr=victim.net_addr,  # spoofed end-to-end
        now=1.0,
    )
    assert isinstance(accept, JoinAccept)
    try:
        attacker.private_key.decrypt(accept.encrypted_session_key)
    except DecryptionError:
        print("STOPPED at session key: RSA-encrypted to the victim's key")

    scenario("4. Ticket forgery")
    forged = dataclasses.replace(victim.channel_ticket, expire_time=1e12)
    try:
        forged.verify(manager.public_key, now=1.0)
    except SignatureError:
        print("STOPPED: digital signature covers every field")

    scenario("5. One account, two locations")
    second_home = deployment.create_client(
        "victim@example.org", "pw", region="CH", register=False
    )
    second_home.login(now=100.0)
    second_home.switch_channel("target", now=100.0)
    print("new location served immediately (mobility, Section IV-D)")
    renew_at = victim.channel_ticket.expire_time - 10.0
    victim.login(now=renew_at)
    try:
        victim.renew_channel_ticket(now=renew_at)
    except RenewalRefusedError as exc:
        print(f"old location STOPPED at renewal: {exc}")

    scenario("6. Tampered client binary")
    cracked = deployment.create_client(
        "cracked@example.org", "pw", region="CH",
        image=bytes(b ^ 0xA5 for b in deployment.client_image),
    )
    try:
        cracked.login(now=0.0)
    except AttestationError as exc:
        print(f"STOPPED at remote attestation: {exc}")

    scenario("7. Content injection (channel hijack)")
    from repro.core.packets import ContentPacket

    genuine = deployment.server("target").emit_packet(10.0)
    rogue = ContentPacket(
        serial=genuine.serial, sequence=genuine.sequence,
        ciphertext=b"\x00" * len(genuine.ciphertext),
    )
    try:
        victim.receive_packet(rogue)
    except DecryptionError:
        print("STOPPED: integrity tag mismatch -- hijack detected, not forwarded")

    scenario("8. What the DRM concedes (and the paper concedes too)")
    plaintext = victim.receive_packet(genuine)
    print(f"an authorized-but-compromised client holds {len(plaintext)} plaintext "
          "bytes it could re-serve out-of-band -- true of every DRM; the P2P "
          "network itself never carries plaintext")

