"""A component created later is wired like one created first.

The rule (DESIGN.md section 6, "Construction and wiring"): ``Deployment``
constructs a component in one place and attaches facilities in one
place, so *when* a facility was enabled relative to *how* a component
came to exist can never matter.  The matrix below crosses every
facility with every way a component appears afterwards and compares
the late component's wiring with an early one's; the commutation test
enables the facilities in every order over a replicated deployment.
"""

import itertools

import pytest

from repro.core.channel_manager import ChannelManager
from repro.core.user_manager import UserManager
from repro.deployment import Deployment
from repro.errors import ReproError
from repro.p2p.adversary import AdversaryConfig
from repro.p2p.peer import Peer

FACILITIES = {
    "tracing": lambda d: d.enable_tracing(),
    "detection": lambda d: d.enable_misbehavior_detection(join_rate_limit=(5, 10.0)),
    "sharding": lambda d: d.enable_sharding(),
    "durability": lambda d: d.enable_durability(),
    "uniform_peer_lists": lambda d: d.use_uniform_peer_lists(),
}

#: The component kinds whose wiring each facility must change.
TOUCHES = {
    "tracing": {"um", "cm", "channel", "peer"},
    "detection": {"cm", "channel", "peer"},
    "sharding": {"cm"},
    "durability": {"um", "cm"},
    "uniform_peer_lists": {"cm", "channel"},
}


def wiring(component):
    """Everything a facility attaches to one component."""
    if isinstance(component, UserManager):
        return {"tracer": component.tracer, "journals": component._store is not None}
    if isinstance(component, ChannelManager):
        return {
            "tracer": component.tracer,
            "rate_limit": component._rate_limit,
            "rate_limit_listener": component.rate_limit_listener,
            "viewing_router": component._viewing_router,
            "peer_list_provider": component._peer_list_provider,
            "journals": component._store is not None,
        }
    if isinstance(component, Peer):
        return {
            "tracer": component.tracer,
            "scorecard": component.scorecard,
        }
    server, overlay = component  # a channel
    return {
        "server_tracer": server.tracer,
        "source_tracer": overlay.source.tracer,
        "scorecard": overlay.scorecard,
        "repair_selector": overlay.repair_selector,
    }


def channel(deployment, channel_id):
    return deployment.server(channel_id), deployment.overlay(channel_id)


def ticketed_client(deployment, email, now):
    client = deployment.create_client(email, "pw", region="CH")
    client.login(now=now)
    client.switch_channel("early", now=now + 1.0)
    return client


def build():
    """One early component of every kind; returns them by kind."""
    deployment = Deployment(seed=13)
    deployment.add_free_channel("early", regions=["CH"])
    client = deployment.create_client("early@example.org", "pw", region="CH")
    client.login(now=0.0)
    peer = deployment.watch(client, "early", now=1.0)
    early = {
        "um": deployment.user_managers["domain-0"],
        "cm": deployment.channel_managers["default"],
        "channel": channel(deployment, "early"),
        "peer": peer,
    }
    return deployment, early


# Each way returns (late component, the early component it must match).


def via_add_partition(d, early):
    return [(d.add_partition("late"), early["cm"])]


def via_cm_replica(d, early):
    return [(d.add_channel_manager_replicas("default", 1)[0], early["cm"])]


def via_um_replica(d, early):
    return [(d.add_user_manager_replicas("domain-0", 1)[0], early["um"])]


def via_um_shard(d, early):
    (domain,) = d.add_user_manager_shards(1)
    return [(d.user_managers[domain], early["um"])]


def via_cm_shard(d, early):
    (partition,) = d.add_channel_manager_shards(1)
    return [(d.channel_managers[partition], early["cm"])]


def via_um_recovery(d, early):
    dead = d.crash_user_manager("domain-0")
    assert dead is early["um"]
    return [(d.recover_user_manager("domain-0"), dead)]


def via_cm_recovery(d, early):
    dead = d.crash_channel_manager("default")
    assert dead is early["cm"]
    return [(d.recover_channel_manager("default"), dead)]


def via_add_free_channel(d, early):
    d.add_free_channel("late", regions=["CH"])
    return [(channel(d, "late"), early["channel"])]


def via_client_and_peers(d, early):
    honest = ticketed_client(d, "late@example.org", 10.0)
    byzantine = ticketed_client(d, "byzantine@example.org", 20.0)
    # Clients are not tracked after creation; every early component
    # carries the one tracer a late client must carry too.
    assert honest.tracer is early["peer"].tracer
    return [
        (d.make_peer(honest, "early"), early["peer"]),
        (
            d.make_adversarial_peer(byzantine, "early", AdversaryConfig(withhold_keys=True)),
            early["peer"],
        ),
    ]


WAYS = {
    "add_partition": via_add_partition,
    "add_channel_manager_replicas": via_cm_replica,
    "add_user_manager_replicas": via_um_replica,
    "add_user_manager_shards": via_um_shard,
    "add_channel_manager_shards": via_cm_shard,
    "user_manager_recovery": via_um_recovery,
    "channel_manager_recovery": via_cm_recovery,
    "add_free_channel": via_add_free_channel,
    "create_client_and_make_peers": via_client_and_peers,
}


@pytest.mark.parametrize("way", WAYS)
@pytest.mark.parametrize("facility", FACILITIES)
def test_late_component_is_wired_like_an_early_one(facility, way):
    deployment, early = build()
    if way.endswith("recovery") and facility != "durability":
        deployment.enable_durability()  # recovery needs a store to replay
    before = {kind: wiring(component) for kind, component in early.items()}
    FACILITIES[facility](deployment)
    changed = {kind for kind, component in early.items() if wiring(component) != before[kind]}
    assert changed == TOUCHES[facility]  # the facility is on, and only where it belongs

    for late, counterpart in WAYS[way](deployment, early):
        # Compared after the fact: a way that itself enables a facility
        # (a reshard enables sharding) re-wires the early components too.
        assert wiring(late) == wiring(counterpart)


def labelled_wiring(deployment):
    """Every live component's wiring, facility objects replaced by the
    name of the deployment field that holds them (comparable across
    deployments)."""
    names = {
        id(deployment.tracer): "tracer",
        id(deployment.scorecard): "scorecard",
        id(deployment.sharding.viewing): "viewing_router",
    }

    def label(value):
        if callable(value) and hasattr(value, "__name__"):
            return value.__name__
        return names.get(id(value), value)

    components = {}
    for kind, primaries in (
        ("um", deployment.user_managers), ("cm", deployment.channel_managers)
    ):
        for name, primary in primaries.items():
            farm = deployment.farm(f"{kind}://{name}")
            for n, manager in enumerate([primary] + farm.replicas):
                assert manager._store is farm.store is not None
                components[f"{farm.address}!{n}"] = manager
    for channel_id in deployment.overlays:
        components[channel_id] = channel(deployment, channel_id)
        components.update(deployment.overlay(channel_id).peers)
    return {
        name: {field: label(value) for field, value in wiring(component).items()}
        for name, component in components.items()
    }


def test_enabling_facilities_commutes():
    """Every order of the five facility calls over a deployment with
    one replica per farm ends in the same wiring."""
    facilities = list(FACILITIES)
    outcomes = {}
    for order in itertools.permutations(facilities):
        deployment, _ = build()
        deployment.add_user_manager_replicas("domain-0", 1)
        deployment.add_channel_manager_replicas("default", 1)
        for facility in order:
            FACILITIES[facility](deployment)
        outcomes[order] = labelled_wiring(deployment)
        assert sorted(deployment.stores) == [
            "cm-default", "cpm", "um-domain-0", "viewing-domain-0",
        ]
    reference = outcomes[tuple(facilities)]
    assert reference["cm://default!1"] == {
        "tracer": "tracer",
        "rate_limit": (5, 10.0),
        "rate_limit_listener": "_on_rate_limited",
        "viewing_router": "viewing_router",
        "peer_list_provider": "_peer_list_provider",
        "journals": True,
    }
    assert all(outcome == reference for outcome in outcomes.values())


def test_cold_start_recovers_before_replicas_join(tmp_path):
    """A store root holding a previous process's state is the truth: a
    farm recovers from it first and replicas then share the recovered
    state -- fresh replicas added *before* must not be adopted."""
    root = str(tmp_path)
    first = Deployment(seed=5)
    first.enable_durability(root=root)
    first.add_free_channel("news", regions=["CH"])
    viewer = first.create_client("v@example.org", "pw", region="CH")
    viewer.login(now=0.0)
    viewer.switch_channel("news", now=1.0)
    persisted = first.channel_managers["default"].viewing_log()
    assert len(persisted) == 1

    restarted = Deployment(seed=5)
    restarted.enable_durability(root=root)
    (replica,) = restarted.add_channel_manager_replicas("default", 1)
    assert replica.viewing_log() == persisted

    wrong_order = Deployment(seed=5)
    wrong_order.add_channel_manager_replicas("default", 1)
    with pytest.raises(ReproError, match="before adding replicas"):
        wrong_order.enable_durability(root=root)
