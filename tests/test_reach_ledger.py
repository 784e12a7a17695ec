"""The reachability ledger's allow-list stays honest (no sweep needed).

``tools/reach/ledger.py`` runs every production surface and fails on a
``def`` nothing reaches unless ``tools/reach/allow.txt`` lists it.  The
sweep takes minutes, so CI runs it as its own step; this module checks
in well under a second that every entry still names a ``def`` and
carries a reason, and that the classifier flags each kind of drift.
"""

import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("reach_ledger", ROOT / "tools" / "reach" / "ledger.py")
ledger = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = ledger  # dataclasses resolve annotations through it
_spec.loader.exec_module(ledger)


def test_every_allow_entry_names_a_def_and_gives_a_reason():
    entries = ledger.parse_allow()
    assert entries, "allow.txt is empty or missing"
    defs = list(ledger.index_defs().values())
    assert ledger.check_entries(entries, defs) == []
    targets = [entry.target for entry in entries]
    assert len(targets) == len(set(targets)), "duplicate allow.txt entries"


def test_classifier_flags_unlisted_stale_missing_and_reasonless(tmp_path):
    pkg = tmp_path / "repro"
    pkg.mkdir()
    (pkg / "mod.py").write_text(
        "def used():\n    return 1\n\n\n"
        "def listed():\n    return 2\n\n\n"
        "def forgotten():\n    return 3\n\n\n"
        "class C:\n"
        "    @property\n    def x(self):\n        return 4\n\n"
        "    @x.setter\n    def x(self, value):\n        pass\n"
    )
    index = ledger.index_defs(tmp_path)
    by_name = {d.qualname: d for d in index.values()}
    assert set(by_name) == {"used", "listed", "forgotten", "C.x", "C.x.setter"}
    allow = tmp_path / "allow.txt"
    allow.write_text(
        "# owners\n"
        "repro/mod.py:listed  item 1: kept on purpose\n"
        "repro/mod.py:used  item 2: stale, production reaches it\n"
        "repro/mod.py:gone  item 3: names nothing\n"
        "repro/mod.py:C.x.setter\n"
    )
    reached = {by_name["used"], by_name["C.x"]}
    unreached, problems = ledger.classify(list(index.values()), reached, ledger.parse_allow(allow))
    assert sorted(d.qualname for d in unreached) == ["C.x.setter", "forgotten", "listed"]
    assert len(problems) == 4
    assert "repro/mod.py:gone: no such def" in problems[0]
    assert "repro/mod.py:C.x.setter: no reason given" in problems[1]
    assert problems[2].startswith("repro/mod.py:forgotten (line 9")
    assert "allow.txt:3: repro/mod.py:used: production reaches" in problems[3]


def test_whole_module_entry_covers_every_def_in_it(tmp_path):
    (tmp_path / "repro").mkdir()
    (tmp_path / "repro" / "idle.py").write_text("def a():\n    pass\n\n\ndef b():\n    pass\n")
    defs = list(ledger.index_defs(tmp_path).values())
    entries = [ledger.Entry("repro/idle.py:*", "item 9: never imported", 1)]
    assert ledger.classify(defs, set(), entries)[1] == []
    # Once production reaches any def in it, the module entry is stale.
    assert len(ledger.classify(defs, {defs[0]}, entries)[1]) == 1
