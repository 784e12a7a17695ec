"""One production path per mechanism, stated once and executable.

The rule (DESIGN.md, "Reference paths"): a mechanism has one
production path; a slower twin survives only as a module-level
``reference_*`` function that tests compare against -- never behind a
constructor argument, a ``use_*`` method, or an environment variable.
So nothing in ``src/`` outside the defining module may mention a
``reference_*`` function, and the names of the twins and switches that
were deleted under this rule -- and of the code that only tests reached
(``tools/reach/ledger.py``) -- must not come back.

The same file guards the sibling rules: for ``Deployment``
("Construction and wiring") one construction site per manager kind,
facilities attached only by the ``_wire_*`` functions; for the viewer's
protocols ("One protocol script") requests built only by the scripts;
for the data plane ("One key hand-off") one process-spawning module, no
``pool`` parameter, and one construction site per key message.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

DELETED_NAMES = {
    "legacy_encrypt",
    "use_index",
    "RegionAwarePeerSampler",
    "rank_for_repair",
    "repair_ranker",
    "WallClockCostModel",
    "without_crt",
    "ticket_cache_size",
    "CryptoPool",
    "crypto_pool",
    "enable_multicore",
    "encrypt_many",
    "emit_packets",
    "broadcast_packets",
    "current_content_key",
    # Reached by no production surface, deleted with their tests.
    "LiveEvent",
    "EventWorkload",
    "prime_time_schedule",
    "overlay_events_on_trace",
    "live_events",
    "event_audience",
    "License",
    "LicenseManager",
    "format_durability_report",
    "format_series",
    "cdf_summary",
    "_quantile_from_cdf",
    "cdf_points",
    "hourly_median_series",
    "peak_offpeak_cdfs",
    "asn_of",
    "playback_active",
    "NonHomogeneousPoisson",
    "FlashCrowd",
    "merge_arrivals",
    "concurrent_users_curve",
    "concurrency_series",
    "run_storm_comparison",
    "crossover_audience",
    "correlations",
    "run_all",
    # The chaos suite's scenario functions, now rows in SCENARIOS, the
    # lazy import that split it in two, and the soft-fault methods
    # folded into FaultInjector.schedule.
    "manager_crash_mid_storm",
    "rolling_restarts",
    "partition_cm_farm",
    "slow_station_brownout",
    "replica_flap",
    "polluting_parents",
    "key_withholding_parents",
    "depth_liars",
    "replay_storm",
    "_adversarial",
    "_viewer_count",
    "_guard_client",
    "require_pipeline",
    "client_addresses",
    "down_at",
    "up_at",
    "partition_at",
    "heal_at",
    "brownout_at",
    "restore_at",
    "_log_event",
    # Bare names too common to ban: only the class may not define them.
    "MetricsRegistry.report",
    "Tracer.traces",
    "Tracer.reset",
    "FaultInjector.flap",
    "ScenarioResult.to_dict",
    "ScenarioResult.from_dict",
}


def identifiers(tree):
    """Every identifier a module defines, binds, imports or mentions."""
    for node in ast.walk(tree):
        for field in ("name", "id", "attr", "arg", "asname"):
            value = getattr(node, field, None)
            if isinstance(value, str):
                # "pkg.mod" import names: check each dotted part.
                yield from ((part, node) for part in value.split("."))


def scan(root):
    """``(reference_* uses outside the defining module, deleted names)``.

    A dotted entry ``Class.member`` is resurrected only by a ``Class``
    that defines ``member`` again.
    """
    plain = {name for name in DELETED_NAMES if "." not in name}
    members = {tuple(name.split(".")) for name in DELETED_NAMES if "." in name}
    trees = {
        path: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for path in sorted(root.rglob("*.py"))
    }
    defined_in = {
        node.name: path
        for path, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name.startswith("reference_")
    }
    escaped, resurrected = [], []
    for path, tree in trees.items():
        for name, node in identifiers(tree):
            where = f"{path.relative_to(root)}:{getattr(node, 'lineno', '?')} {name}"
            if name in plain:
                resurrected.append(where)
            if name in defined_in and defined_in[name] != path:
                escaped.append(where)
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef):
                for item in cls.body:
                    if (cls.name, getattr(item, "name", None)) in members:
                        resurrected.append(
                            f"{path.relative_to(root)}:{item.lineno} {cls.name}.{item.name}"
                        )
    return defined_in, escaped, resurrected


def test_reference_functions_stay_in_their_module_and_deleted_names_stay_deleted():
    defined_in, escaped, resurrected = scan(SRC)
    # The oracles this rule protects exist (the scan would pass
    # vacuously if a rename hid them).
    assert {"reference_encrypt", "reference_decrypt", "reference_ranked_sides"} <= set(
        defined_in
    )
    assert not escaped, f"reference_* used outside its module: {escaped}"
    assert not resurrected, f"deleted twin/switch is back: {resurrected}"


def test_scan_catches_both_violations(tmp_path):
    (tmp_path / "oracle.py").write_text(
        "def reference_sum(xs):\n    return sum(xs)\n"
        "def fast_sum(xs):\n    return reference_sum(xs)\n"  # same module: fine
    )
    (tmp_path / "caller.py").write_text(
        "from oracle import reference_sum\n"
        "def total(xs, use_index=True):\n"
        "    return reference_sum(xs) if not use_index else xs.without_crt()\n"
        "class Tracer:\n"
        "    def reset(self):\n"          # a deleted member: caught
        "        self.counters.reset()\n"  # the bare name elsewhere: fine
    )
    _, escaped, resurrected = scan(tmp_path)
    assert [e.split()[0] for e in escaped] == ["caller.py:1", "caller.py:3"]
    assert sorted(r.split()[1] for r in resurrected) == [
        "Tracer.reset", "use_index", "use_index", "without_crt",
    ]


# ----------------------------------------------------------------------
# Construction and wiring (DESIGN.md, "Construction and wiring"): in
# deployment.py a manager is constructed in one function and a facility
# is attached only by the ``_wire_*`` functions.
# ----------------------------------------------------------------------

MANAGER_CONSTRUCTORS = (
    "UserManager", "ChannelManager", "UserManager.recover", "ChannelManager.recover",
)
FACILITY_ATTRIBUTES = {
    "tracer", "scorecard", "rate_limit_listener", "repair_selector",
}
FACILITY_CALLS = {"set_join_rate_limit", "set_peer_list_provider", "install_router"}


def dotted(node):
    """``Name`` / ``Name.attr`` as a string, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        return f"{node.value.id}.{node.attr}"
    return None


def scan_wiring(tree):
    """``(constructor -> calling functions, facility attachments outside _wire_*)``."""
    sites = {name: set() for name in MANAGER_CONSTRUCTORS}
    stray = []
    functions = [
        node for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    for function in functions:
        wires = function.name.startswith("_wire_")
        for node in ast.walk(function):
            if isinstance(node, ast.Call):
                if dotted(node.func) in sites:
                    sites[dotted(node.func)].add(function.name)
                attached = getattr(node.func, "attr", None) in FACILITY_CALLS
                targets = []
            elif isinstance(node, ast.Assign):
                attached, targets = False, node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                attached, targets = False, [node.target]
            else:
                continue
            for target in targets:
                for leaf in ast.walk(target):
                    # ``self.tracer = ...`` sets the deployment's own
                    # facility field; attaching it to a component does not.
                    if (
                        isinstance(leaf, ast.Attribute)
                        and leaf.attr in FACILITY_ATTRIBUTES
                        and dotted(leaf) != f"self.{leaf.attr}"
                    ):
                        attached = True
            if attached and not wires:
                stray.append(f"{function.name}:{node.lineno}")
    return sites, stray


def test_deployment_constructs_and_wires_in_one_place():
    path = SRC / "repro" / "deployment.py"
    sites, stray = scan_wiring(ast.parse(path.read_text(encoding="utf-8")))
    for constructor, callers in sites.items():
        assert len(callers) == 1, f"{constructor}( is called from {sorted(callers)}"
    assert not stray, f"facility attached outside the _wire_* functions: {stray}"


def test_wiring_scan_catches_a_second_site_and_a_stray_attachment():
    sites, stray = scan_wiring(ast.parse(
        "class D:\n"
        "    def _build(self, farm):\n"
        "        return UserManager(farm) or UserManager.recover(farm)\n"
        "    def add_replicas(self, farm):\n"
        "        replica = UserManager(farm)\n"            # second site
        "        replica.tracer = self.tracer\n"           # stray (line 6)
        "        self.sharding.install_router(replica)\n"  # stray (line 7)
        "    def enable_tracing(self, tracer):\n"
        "        self.tracer = tracer\n"                   # the field: fine
        "        self.redirection.tracer = tracer\n"       # stray (line 10)
        "    def _wire_manager(self, m):\n"
        "        m.tracer = m.source.tracer = self.tracer\n"
        "        m.set_join_rate_limit(1, 2.0)\n"
    ))
    assert sites["UserManager"] == {"_build", "add_replicas"}
    assert sites["UserManager.recover"] == {"_build"}
    assert sites["ChannelManager"] == set()
    assert stray == ["add_replicas:6", "add_replicas:7", "enable_tracing:10"]


# ----------------------------------------------------------------------
# One protocol script (DESIGN.md, "One protocol script"): the client's
# side of LOGIN / SWITCH / RENEWAL / JOIN is written once, so only the
# script module builds a protocol request.
# ----------------------------------------------------------------------

REQUEST_CONSTRUCTORS = {
    "Login1Request", "Login2Request", "Switch1Request", "Switch2Request", "JoinRequest",
}
REQUEST_BUILDERS = {
    "repro/core/exchange.py",
    # Times one server handler in isolation, so it hand-builds that
    # handler's input; it runs no exchange.
    "repro/experiments/calibration.py",
    # Plays the attacker of Section IV-G: it hand-builds stolen,
    # replayed and forged requests on purpose.
    "repro/threats.py",
}


def scan_request_construction(root):
    """``path:line Name`` for every request constructed outside the allow-list."""
    stray = []
    for path in sorted(root.rglob("*.py")):
        relative = path.relative_to(root).as_posix()
        if relative in REQUEST_BUILDERS:
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                if name in REQUEST_CONSTRUCTORS:
                    stray.append(f"{relative}:{node.lineno} {name}")
    return stray


def test_protocol_requests_are_built_only_by_the_scripts():
    for relative in REQUEST_BUILDERS:  # a rename must not hollow the list
        assert (SRC / relative).is_file(), relative
    assert not scan_request_construction(SRC)


def test_request_scan_catches_a_second_client(tmp_path):
    (tmp_path / "repro" / "core").mkdir(parents=True)
    (tmp_path / "repro" / "core" / "exchange.py").write_text(
        "def join_script(who):\n    yield JoinRequest(channel_ticket=who.ticket)\n"
    )
    (tmp_path / "repro" / "fork.py").write_text(
        "from repro.core import protocol\n"
        "from repro.core.protocol import Switch1Request as Request\n"  # alias: a type, fine
        "def start_switch(self):\n"
        "    first = Switch1Request(user_ticket=self.user_ticket)\n"
        "    return first, protocol.Login1Request(email=self.email)\n"
    )
    assert scan_request_construction(tmp_path) == [
        "repro/fork.py:4 Switch1Request", "repro/fork.py:5 Login1Request",
    ]


# ----------------------------------------------------------------------
# One key hand-off (DESIGN.md, "One key hand-off"): the data plane has
# one seal, one fan-out and one way for a content key to leave a parent
# and enter a viewer.  Processes are spawned by the parallel storm
# driver only, nothing takes a ``pool``, and the key message and the
# key record are each built where the allow-list says -- so no second
# install path can grow back beside ``decrypt_key_from_link``.
# ----------------------------------------------------------------------

MULTIPROCESSING_USERS = {"repro/parallel/driver.py"}
# Its ``pool`` is an ``EndpointPool`` -- replica addresses, not processes.
POOL_PARAMETER_OWNERS = {"repro/resilience/client.py"}
KEY_CONSTRUCTORS = {
    "KeyUpdate": {"repro/p2p/peer.py"},
    "ContentKey": {"repro/core/keystream.py", "repro/core/packets.py"},
}


def scan_data_plane(root):
    """``path:line what`` for every breach of the three rules above."""
    stray = []
    for path in sorted(root.rglob("*.py")):
        relative = path.relative_to(root).as_posix()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            where = f"{relative}:{getattr(node, 'lineno', '?')}"
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                modules = []
            if relative not in MULTIPROCESSING_USERS and any(
                module.split(".")[0] == "multiprocessing" for module in modules
            ):
                stray.append(f"{where} multiprocessing")
            if isinstance(node, ast.arg) and node.arg == "pool":
                if relative not in POOL_PARAMETER_OWNERS:
                    stray.append(f"{where} pool=")
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                if name in KEY_CONSTRUCTORS and relative not in KEY_CONSTRUCTORS[name]:
                    stray.append(f"{where} {name}(")
    return stray


def test_data_plane_has_one_seal_one_fanout_one_handoff():
    for relative in MULTIPROCESSING_USERS.union(
        POOL_PARAMETER_OWNERS, *KEY_CONSTRUCTORS.values()
    ):
        assert (SRC / relative).is_file(), relative  # a rename must not hollow the lists
    assert not scan_data_plane(SRC)


def test_data_plane_scan_catches_each_violation(tmp_path):
    (tmp_path / "repro" / "p2p").mkdir(parents=True)
    (tmp_path / "repro" / "p2p" / "peer.py").write_text(
        "def push(self, key):\n    return KeyUpdate(serial=key.serial)\n"  # fine
    )
    (tmp_path / "repro" / "offload.py").write_text(
        "import multiprocessing.pool\n"
        "from multiprocessing import get_context\n"
        "def seal(frames, pool=None):\n"
        "    return protocol.KeyUpdate(serial=0)\n"
        "def install(self, material, *, pool):\n"
        "    self.key_ring.offer(ContentKey(serial=0, key=material, activate_at=0.0))\n"
    )
    assert scan_data_plane(tmp_path) == [
        "repro/offload.py:1 multiprocessing",
        "repro/offload.py:2 multiprocessing",
        "repro/offload.py:3 pool=",
        "repro/offload.py:4 KeyUpdate(",
        "repro/offload.py:5 pool=",
        "repro/offload.py:6 ContentKey(",
    ]


# ----------------------------------------------------------------------
# Depth-safe overlay walks: a tree-push overlay may be a chain deeper
# than the interpreter's recursion limit, so no function in ``p2p/``
# calls itself -- every walk is an explicit worklist.
# ----------------------------------------------------------------------


def scan_self_calls(root):
    """``path:line name`` for every function that calls itself."""
    found = []
    for path in sorted(root.rglob("*.py")):
        relative = path.relative_to(root).as_posix()
        for function in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            body = list(function.body)
            while body:
                node = body.pop()
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                    continue  # a nested function's calls are its own
                if isinstance(node, ast.Call):
                    callee = node.func
                    if (
                        isinstance(callee, ast.Name) and callee.id == function.name
                        or isinstance(callee, ast.Attribute) and callee.attr == function.name
                        and isinstance(callee.value, ast.Name)
                        and callee.value.id in ("self", "cls")
                    ):
                        found.append(f"{relative}:{node.lineno} {function.name}")
                body.extend(ast.iter_child_nodes(node))
    return found


def test_no_function_in_p2p_calls_itself():
    assert (SRC / "repro" / "p2p" / "overlay.py").is_file()
    assert not scan_self_calls(SRC / "repro" / "p2p")


def test_self_call_scan_catches_direct_and_method_recursion(tmp_path):
    (tmp_path / "walk.py").write_text(
        "def check(node):\n"
        "    def visit(n):\n"
        "        for c in n.children:\n"
        "            visit(c)\n"                   # nested recursion (line 4)
        "    visit(node)\n"                        # outer calls inner: fine
        "class Peer:\n"
        "    def push(self, key):\n"
        "        for child in self.children:\n"
        "            child.push(key)\n"            # another object: fine
        "        self.push(key)\n"                 # line 10
        "    def forward(self):\n"
        "        return [self.push(None)]\n"       # a sibling method: fine
    )
    assert scan_self_calls(tmp_path) == ["walk.py:4 visit", "walk.py:10 push"]
