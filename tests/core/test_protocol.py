"""Tests for protocol message types."""

import pytest

from repro.core.attributes import Attribute, AttributeSet
from repro.core.protocol import KeyUpdate, Switch1Request
from repro.core.tickets import ChannelTicket, UserTicket
from repro.crypto.drbg import HmacDrbg
from repro.crypto.rsa import generate_keypair

KEY = generate_keypair(HmacDrbg(b"protocol-tests"), bits=512)


def make_user_ticket():
    return UserTicket(
        user_id=1,
        client_public_key=KEY.public_key,
        start_time=0.0,
        expire_time=100.0,
        attributes=AttributeSet([Attribute(name="NetAddr", value="11.1.1.1")]),
    ).signed(KEY)


def make_channel_ticket():
    return ChannelTicket(
        channel_id="ch1",
        user_id=1,
        client_public_key=KEY.public_key,
        net_addr="11.1.1.1",
        renewal=False,
        start_time=0.0,
        expire_time=100.0,
    ).signed(KEY)


class TestSwitchRequestTargets:
    def test_new_ticket_target(self):
        request = Switch1Request(user_ticket=make_user_ticket(), channel_id="ch1")
        assert not request.is_renewal
        assert request.target_channel == "ch1"

    def test_renewal_target_comes_from_expiring_ticket(self):
        request = Switch1Request(
            user_ticket=make_user_ticket(), expiring_ticket=make_channel_ticket()
        )
        assert request.is_renewal
        assert request.target_channel == "ch1"


class TestKeyUpdateValidation:
    def test_serial_must_fit_8_bits(self):
        with pytest.raises(ValueError):
            KeyUpdate(channel_id="ch", serial=300, encrypted_content_key=b"", activate_at=0.0)
