"""One production path per mechanism, stated once and executable.

The rule (DESIGN.md, "Reference paths"): a mechanism has one
production path; a slower twin survives only as a module-level
``reference_*`` function that tests compare against -- never behind a
constructor argument, a ``use_*`` method, or an environment variable.
So nothing in ``src/`` outside the defining module may mention a
``reference_*`` function, and the names of the twins and switches that
were deleted under this rule must not come back.

The same file guards the sibling rules: for ``Deployment``
("Construction and wiring") one construction site per manager kind,
facilities attached only by the ``_wire_*`` functions; for the viewer's
protocols ("One protocol script") requests built only by the scripts.
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
    """``(reference_* uses outside the defining module, deleted names)``."""
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
            if name in DELETED_NAMES:
                resurrected.append(where)
            if name in defined_in and defined_in[name] != path:
                escaped.append(where)
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
    )
    _, escaped, resurrected = scan(tmp_path)
    assert [e.split()[0] for e in escaped] == ["caller.py:1", "caller.py:3"]
    assert sorted(r.split()[1] for r in resurrected) == [
        "use_index", "use_index", "without_crt",
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
    "tracer", "crypto_pool", "scorecard", "rate_limit_listener", "repair_selector",
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
        "        m.tracer = m.source.crypto_pool = self.tracer\n"
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
