"""The only module of the benchmark that imports from ``repro``.

``BOUNDARIES`` lists every entry point of the program that the harness
calls or wraps with a timing span.  ``load()`` resolves all of them at
start-up and fails naming any that no longer resolves, so a refactor of
the program sees exactly which names it must keep -- or which rows a
follow-up benchmark change must re-point.

A row is ``(layer, boundary, target, use)``:

* ``use == "wrap"``: ``bench/trace.py`` times the call in a traced pass
  and reports ``<layer>.<boundary>.calls`` and ``.self_ms``.  Several
  rows may share one ``layer.boundary`` (both ticket classes feed
  ``core.tickets.verify``).
* ``use == "call"``: the harness only calls it (or reads it); ``layer``
  is then the attribute name on the namespace ``load()`` returns, or
  ``None`` for a method reached through an instance.
"""

from __future__ import annotations

import importlib
import os
import sys
from types import SimpleNamespace
from typing import List, NamedTuple, Optional, Tuple

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class Boundary(NamedTuple):
    layer: Optional[str]
    boundary: str
    target: str
    use: str


def _wrap(layer: str, boundary: str, *targets: str) -> List[Boundary]:
    return [Boundary(layer, boundary, target, "wrap") for target in targets]


def _call(alias: Optional[str], target: str) -> Boundary:
    return Boundary(alias, target.split(":")[1], target, "call")


BOUNDARIES: Tuple[Boundary, ...] = (
    # -- traced layer boundaries -----------------------------------------
    *_wrap("crypto.rsa", "sign", "repro.crypto.rsa:RsaPrivateKey.sign"),
    *_wrap("crypto.rsa", "verify", "repro.crypto.rsa:RsaPublicKey.verify"),
    *_wrap("crypto.rsa", "encrypt", "repro.crypto.rsa:RsaPublicKey.encrypt"),
    *_wrap("crypto.rsa", "decrypt", "repro.crypto.rsa:RsaPrivateKey.decrypt"),
    *_wrap("crypto.drbg", "generate", "repro.crypto.drbg:HmacDrbg.generate"),
    *_wrap("crypto.stream", "encrypt", "repro.crypto.stream:SymmetricKey.encrypt"),
    *_wrap("crypto.stream", "decrypt", "repro.crypto.stream:SymmetricKey.decrypt"),
    *_wrap(
        "core.tickets", "signed",
        "repro.core.tickets:UserTicket.signed",
        "repro.core.tickets:ChannelTicket.signed",
    ),
    *_wrap(
        "core.tickets", "verify",
        "repro.core.tickets:UserTicket.verify",
        "repro.core.tickets:ChannelTicket.verify",
    ),
    *_wrap("core.policy", "evaluate", "repro.core.policy_index:CompiledPolicyIndex.evaluate"),
    *_wrap("core.policy", "compiled", "repro.core.policy_manager:ChannelRecord.compiled"),
    *_wrap("core.user_manager", "login1", "repro.core.user_manager:UserManager.login1"),
    *_wrap("core.user_manager", "login2", "repro.core.user_manager:UserManager.login2"),
    *_wrap("core.channel_manager", "switch1", "repro.core.channel_manager:ChannelManager.switch1"),
    *_wrap("core.channel_manager", "switch2", "repro.core.channel_manager:ChannelManager.switch2"),
    *_wrap(
        "core.policy_manager", "fetch_channel_list",
        "repro.core.policy_manager:ChannelPolicyManager.fetch_channel_list",
    ),
    *_wrap(
        "core.policy_manager", "schedule_blackout",
        "repro.core.policy_manager:ChannelPolicyManager.schedule_blackout",
    ),
    *_wrap(
        "core.policy_manager", "cancel_blackout",
        "repro.core.policy_manager:ChannelPolicyManager.cancel_blackout",
    ),
    *_wrap("core.redirection", "lookup", "repro.core.redirection:RedirectionManager.lookup"),
    *_wrap("core.client", "login", "repro.core.client:Client.login"),
    *_wrap("core.client", "switch_channel", "repro.core.client:Client.switch_channel"),
    *_wrap("core.client", "renew_channel_ticket", "repro.core.client:Client.renew_channel_ticket"),
    *_wrap("core.client", "join_peer", "repro.core.client:Client.join_peer"),
    *_wrap("core.client", "receive_packet", "repro.core.client:Client.receive_packet"),
    *_wrap("core.client", "receive_key_update", "repro.core.client:Client.receive_key_update"),
    *_wrap("core.channel_server", "emit_packet", "repro.core.channel_server:ChannelServer.emit_packet"),
    *_wrap("core.packets", "decrypt_packet", "repro.core.packets:decrypt_packet"),
    *_wrap("core.packets", "reencrypt_key_for_link", "repro.core.packets:reencrypt_key_for_link"),
    *_wrap("core.packets", "reencrypt_key_for_links", "repro.core.packets:reencrypt_key_for_links"),
    *_wrap("core.packets", "decrypt_key_from_link", "repro.core.packets:decrypt_key_from_link"),
    *_wrap("p2p.selection", "provider_call", "repro.p2p.selection:RankedPeerListProvider.__call__"),
    *_wrap("p2p.selection", "select_repair", "repro.p2p.selection:RankedPeerListProvider.select_repair"),
    *_wrap("p2p.overlay", "join", "repro.p2p.overlay:ChannelOverlay.join"),
    *_wrap("p2p.overlay", "remove_peer", "repro.p2p.overlay:ChannelOverlay.remove_peer"),
    *_wrap("p2p.peer", "handle_join", "repro.p2p.peer:Peer.handle_join"),
    *_wrap("p2p.peer", "push_key_update", "repro.p2p.peer:Peer.push_key_update"),
    *_wrap("p2p.peer", "forward_packet", "repro.p2p.peer:Peer.forward_packet"),
    *_wrap("p2p.peer", "deliver_packet", "repro.p2p.peer:Peer.deliver_packet"),
    *_wrap("sim.engine", "run", "repro.sim.engine:Simulator.run"),
    *_wrap("sim.rpc", "call", "repro.sim.rpc:VirtualNetwork.call"),
    *_wrap("sim.driver", "start_login", "repro.sim.driver:AsyncClient.start_login"),
    *_wrap("sim.driver", "start_switch", "repro.sim.driver:AsyncClient.start_switch"),
    *_wrap("sim.driver", "start_renewal", "repro.sim.driver:AsyncClient.start_renewal"),
    *_wrap("store", "append", "repro.store.store:DurableStore.append"),
    *_wrap("sharding", "shard_for", "repro.sharding.directory:ShardDirectory.shard_for"),
    *_wrap("sharding", "viewing_append", "repro.sharding.viewing:ShardedViewingLog.append"),
    *_wrap("sharding", "viewing_latest", "repro.sharding.viewing:ShardedViewingLog.latest"),
    *_wrap("deployment", "create_client", "repro.deployment:Deployment.create_client"),
    *_wrap("deployment", "make_peer", "repro.deployment:Deployment.make_peer"),
    # -- objects the workloads construct or read -------------------------
    _call("Deployment", "repro.deployment:Deployment"),
    _call("HmacDrbg", "repro.crypto.drbg:HmacDrbg"),
    _call("generate_keypair", "repro.crypto.rsa:generate_keypair"),
    _call("SymmetricKey", "repro.crypto.stream:SymmetricKey"),
    _call("FlashCrowdWorkload", "repro.workload:FlashCrowdWorkload"),
    _call("ZipfChannelPopularity", "repro.workload:ZipfChannelPopularity"),
    _call("Simulator", "repro.sim.engine:Simulator"),
    _call("VirtualNetwork", "repro.sim.rpc:VirtualNetwork"),
    _call("ServiceStation", "repro.sim.station:ServiceStation"),
    _call("LatencyModel", "repro.sim.network:LatencyModel"),
    _call("zattoo_like_rtt_table", "repro.sim.network:zattoo_like_rtt_table"),
    _call("AsyncClient", "repro.sim.driver:AsyncClient"),
    _call("wire_user_manager", "repro.sim.driver:wire_user_manager"),
    _call("wire_channel_manager", "repro.sim.driver:wire_channel_manager"),
    _call("ReproError", "repro.errors:ReproError"),
    _call("CapacityError", "repro.errors:CapacityError"),
    _call("PolicyRejectError", "repro.errors:PolicyRejectError"),
    _call("RenewalRefusedError", "repro.errors:RenewalRefusedError"),
    _call("hotpath_counters", "repro.metrics.hotpath:counters"),
    _call("dataplane_counters", "repro.metrics.dataplane:counters"),
    _call("selection_counters", "repro.metrics.selection:counters"),
    # -- methods and attributes reached through those objects ------------
    _call(None, "repro.deployment:Deployment.add_free_channel"),
    _call(None, "repro.deployment:Deployment.add_subscription_channel"),
    _call(None, "repro.deployment:Deployment.enable_durability"),
    _call(None, "repro.deployment:Deployment.enable_sharding"),
    _call(None, "repro.deployment:Deployment.overlay"),
    _call(None, "repro.deployment:Deployment.server"),
    _call(None, "repro.core.accounts:AccountManager.register"),
    _call(None, "repro.core.accounts:AccountManager.subscribe"),
    _call(None, "repro.geo.database:GeoDatabase.random_address"),
    _call(None, "repro.p2p.overlay:ChannelOverlay.depths"),
    _call(None, "repro.p2p.overlay:SourcePeer.tick"),
    _call(None, "repro.core.keystream:ContentKeyRing.has"),
    _call(None, "repro.core.channel_server:ChannelServer.upcoming_key"),
    _call(None, "repro.p2p.overlay:BoundedLog.since"),
    _call(None, "repro.workload.flashcrowd:FlashCrowdWorkload.events"),
    _call(None, "repro.workload.zapping:ZipfChannelPopularity.sample"),
    _call(None, "repro.sim.engine:Simulator.schedule_at"),
    _call(None, "repro.sim.engine:Simulator.schedule"),
    _call(None, "repro.store.store:DurableStore.wal_bytes"),
)


def resolve(target: str):
    """Return ``(owner, attribute name, object)`` for ``module:dotted.path``."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1], getattr(owner, parts[-1])


def load() -> SimpleNamespace:
    """Resolve every boundary; return the namespace the workloads use."""
    src = os.path.join(REPO_ROOT, "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    api = SimpleNamespace()
    missing = []
    for row in BOUNDARIES:
        try:
            _, _, obj = resolve(row.target)
        except (ImportError, AttributeError) as exc:
            missing.append(f"{row.target} ({exc})")
            continue
        if row.use == "call" and row.layer is not None:
            setattr(api, row.layer, obj)
    if missing:
        raise SystemExit(
            "bench: these program entry points no longer resolve; re-point "
            "bench/adapters.py BOUNDARIES:\n  " + "\n  ".join(missing)
        )
    return api


def wrapped_boundaries() -> List[Boundary]:
    return [row for row in BOUNDARIES if row.use == "wrap"]
