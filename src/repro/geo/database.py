"""Synthetic prefix-based GeoIP/AS database.

Address plan
------------
IPv4 space is carved into /8 blocks assigned round-robin by region
population weight, and each /16 inside a region's blocks belongs to
one synthetic Autonomous System.  The mapping is a pure function of
the address, so lookups need no state beyond the assignment tables
and the database can be rebuilt identically from its seed parameters.

This mirrors how the production system used the address: the User
Manager derives the ``Region`` and ``AS`` user attributes from the
connecting address (Table I), and the Channel Manager and peers match
``NetAddr`` literally.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.geo.regions import REGIONS, population_weights


@dataclass(frozen=True)
class GeoRecord:
    """The result of a GeoIP lookup: region name and AS number."""

    region: str
    asn: int


def format_ip(value: int) -> str:
    """Render a 32-bit integer as dotted-quad."""
    return ".".join(str((value >> shift) & 0xFF) for shift in (24, 16, 8, 0))


def parse_ip(text: str) -> int:
    """Parse dotted-quad into a 32-bit integer; raises ValueError."""
    parts = text.split(".")
    if len(parts) != 4:
        raise ValueError(f"not an IPv4 address: {text!r}")
    value = 0
    for part in parts:
        octet = int(part)
        if not 0 <= octet <= 255:
            raise ValueError(f"octet out of range in {text!r}")
        value = (value << 8) | octet
    return value


class GeoDatabase:
    """Deterministic synthetic GeoIP + AS database.

    Parameters
    ----------
    n_blocks:
        Number of /8 blocks to allocate (starting at 11.0.0.0/8 to
        avoid 0/8 and 10/8 oddities).  Blocks are distributed over
        regions proportionally to population weight.
    asn_base:
        First AS number to assign; each /16 gets its own ASN.
    """

    def __init__(self, n_blocks: int = 64, asn_base: int = 1000) -> None:
        if n_blocks < len(REGIONS):
            raise ValueError("need at least one /8 block per region")
        self._block_region: Dict[int, str] = {}
        self._region_blocks: Dict[str, List[int]] = {name: [] for name in REGIONS}
        self._asn_base = asn_base
        names, weights = population_weights()
        total = sum(weights)
        shares = [max(1, round(w / total * n_blocks)) for w in weights]
        # Trim/extend to exactly n_blocks, favouring the largest regions.
        while sum(shares) > n_blocks:
            shares[shares.index(max(shares))] -= 1
        while sum(shares) < n_blocks:
            shares[shares.index(max(shares))] += 1
        block = 11
        for name, share in zip(names, shares):
            for _ in range(share):
                self._block_region[block] = name
                self._region_blocks[name].append(block)
                block += 1

    def lookup(self, address: str) -> Optional[GeoRecord]:
        """Map an address to its region and ASN, or None if unallocated."""
        value = parse_ip(address)
        block = (value >> 24) & 0xFF
        region = self._block_region.get(block)
        if region is None:
            return None
        slash16 = (value >> 16) & 0xFFFF
        return GeoRecord(region=region, asn=self._asn_base + slash16)

    def region_of(self, address: str) -> Optional[str]:
        """Convenience: region name only."""
        record = self.lookup(address)
        return record.region if record else None

    def random_address(self, region: str, rng: random.Random) -> str:
        """Mint a random address that resolves to ``region``.

        Host bytes of .0 and .255 are avoided so addresses look like
        real client endpoints.
        """
        blocks = self._region_blocks.get(region)
        if not blocks:
            raise ValueError(f"unknown or empty region: {region!r}")
        block = rng.choice(blocks)
        b2 = rng.randrange(0, 256)
        b3 = rng.randrange(0, 256)
        b4 = rng.randrange(1, 255)
        return f"{block}.{b2}.{b3}.{b4}"

    def vpn_exit_address(self, apparent_region: str, rng: random.Random) -> str:
        """Mint an address in ``apparent_region`` for a VPN-using client.

        Models the signal leakage the paper accepts as unavoidable: a
        user physically elsewhere presents an exit address inside the
        target region, and the DRM (correctly, per its stated threat
        model) admits them.
        """
        return self.random_address(apparent_region, rng)
