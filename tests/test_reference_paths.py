"""One production path per mechanism, stated once and executable.

The rule (DESIGN.md, "Reference paths"): a mechanism has one
production path; a slower twin survives only as a module-level
``reference_*`` function that tests compare against -- never behind a
constructor argument, a ``use_*`` method, or an environment variable.
So nothing in ``src/`` outside the defining module may mention a
``reference_*`` function, and the names of the twins and switches that
were deleted under this rule must not come back.
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
