"""Cross-commit pin of the seeded key schedule.

``Deployment.__init__`` derives every credential from one HMAC-DRBG by
a fixed sequence of ``fork``/``generate`` draws, and ``fork`` consumes
parent output -- so adding, removing or reordering any draw silently
re-keys every farm, client and overlay created after it, changing
every seeded transcript and overlay shape.  ``test_determinism`` only
compares two runs of the *same* commit; these literals compare this
commit with every earlier one.  If a change here is intended, say so
in the commit and re-record the literals (and ``bench/BASELINE.json``,
whose exact-per-seed metrics move with them).
"""

import hashlib

from repro.deployment import Deployment


def test_seed_7_key_schedule_is_pinned():
    deployment = Deployment(seed=7)
    deployment.add_free_channel("news", regions=["CH"])
    redirect = deployment.redirection.lookup("pin@example.org")
    # Listed in draw order; the CM farm and the overlay sit *after*
    # the "ranked-peer-lists" fork that no longer keys anything itself.
    assert {
        "client_image": hashlib.sha256(deployment.client_image).hexdigest(),
        "cpm": redirect.channel_policy_manager.public_key.fingerprint(),
        "um": deployment.user_managers["domain-0"].public_key.fingerprint(),
        "cm": deployment.channel_managers["default"].public_key.fingerprint(),
        "selection_salt": deployment.overlay("news").selection_salt.hex(),
    } == {
        "client_image": (
            "8bbfdb3d00b3beaa8ee473240566512656b8736e5171730664366c80bbebe836"
        ),
        "cpm": "da9eefeae9089d66",
        "um": "55161bd452f1e977",
        "cm": "f20e4a0bbd37ba2a",
        "selection_salt": "4e4286fdc3aab172a314b7c229e0352a",
    }
