#!/usr/bin/env python3
"""Production-reachability ledger for ``src/repro``.

Runs every production surface -- each ``repro`` subcommand and the
flags that select a code path, the six ``examples/`` and
``bench/run.py --quick`` -- with ``tools/reach/sitecustomize.py``
recording which functions each process enters.  Every ``def`` in
``src/repro`` that no surface reaches must be listed, with a reason,
in ``tools/reach/allow.txt``.

Exit 0 when the ledger balances; 1 on an unreached ``def`` that
``allow.txt`` does not list, or an ``allow.txt`` entry that production
now reaches or that names no ``def``; 2 when a surface itself fails.

    python tools/reach/ledger.py [--list]

``--list`` also prints every unreached ``def`` with its line count
(the lines of its span outside nested defs).  Stdlib only; runs on 3.9.
"""

from __future__ import annotations

import argparse
import ast
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

HERE = Path(__file__).resolve().parent
REPO = HERE.parent.parent
SRC = REPO / "src"
ALLOW = HERE / "allow.txt"
ENV_VAR = "REPRO_REACH_DIR"
#: Sweep chains run at once: the surfaces are CPU-bound, CI runners have two cores.
JOBS = 2


# ----------------------------------------------------------------------
# the defs of src/repro
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Def:
    path: str          # relative to src/, e.g. "repro/p2p/peer.py"
    qualname: str      # "Peer.present_renewal", "f.<locals>.g", "Peer.asn.setter"
    first_line: int    # co_firstlineno: the first decorator, else the def
    lines: int         # lines of its span not inside a nested def

    @property
    def key(self) -> str:
        return f"{self.path}:{self.qualname}"


def _walk(body: Sequence[ast.stmt], prefix: str, path: str) -> Iterator[Def]:
    for node in body:
        if isinstance(node, ast.ClassDef):
            yield from _walk(node.body, f"{prefix}{node.name}.", path)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            nested = [
                child for child in ast.walk(node)
                if child is not node
                and isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            ]
            inner: Set[int] = set()
            for child in nested:
                start = min([child.lineno] + [d.lineno for d in child.decorator_list])
                inner.update(range(start, child.end_lineno + 1))
            span = set(range(first, node.end_lineno + 1))
            qualname = f"{prefix}{node.name}"
            for decorator in node.decorator_list:  # @x.setter: "x.setter"
                if (
                    isinstance(decorator, ast.Attribute)
                    and isinstance(decorator.value, ast.Name)
                    and decorator.value.id == node.name
                ):
                    qualname = f"{qualname}.{decorator.attr}"
            yield Def(path, qualname, first, len(span - inner))
            yield from _walk(node.body, f"{qualname}.<locals>.", path)
        else:
            # defs under if/try/with at any level keep the enclosing prefix
            for field in ("body", "orelse", "finalbody", "handlers"):
                yield from _walk(getattr(node, field, []) or [], prefix, path)


def index_defs(root: Path = SRC) -> Dict[Tuple[str, int], Def]:
    """``(absolute file, first line) -> Def`` for every def under ``root/repro``.

    A name defined twice in one scope (say, under ``if``/``else``) gets
    ``#2``, ``#3``... on its later definitions.
    """
    out: Dict[Tuple[str, int], Def] = {}
    for file in sorted((root / "repro").rglob("*.py")):
        rel = file.relative_to(root).as_posix()
        tree = ast.parse(file.read_text(encoding="utf-8"), filename=str(file))
        seen: Dict[str, int] = {}
        for d in _walk(tree.body, "", rel):
            seen[d.qualname] = seen.get(d.qualname, 0) + 1
            if seen[d.qualname] > 1:
                d = Def(d.path, f"{d.qualname}#{seen[d.qualname]}", d.first_line, d.lines)
            out[(str(file), d.first_line)] = d
    return out


# ----------------------------------------------------------------------
# allow.txt
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Entry:
    target: str        # "repro/x.py:Qual.name" or "repro/x.py:*"
    reason: str
    line: int


def parse_allow(path: Path = ALLOW) -> List[Entry]:
    """``<path>:<qualname>  <reason>`` per line; ``#`` starts a comment line."""
    entries = []
    for number, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        text = raw.strip()
        if not text or text.startswith("#"):
            continue
        target, _, reason = text.partition(" ")
        entries.append(Entry(target, reason.strip(), number))
    return entries


def covers(entry: Entry, d: Def) -> bool:
    path, _, qualname = entry.target.partition(":")
    return path == d.path and qualname in ("*", d.qualname)


def check_entries(entries: List[Entry], defs: Sequence[Def]) -> List[str]:
    """Entries that name no def or carry no reason (no sweep needed)."""
    problems = []
    for entry in entries:
        if ":" not in entry.target:
            problems.append(f"allow.txt:{entry.line}: {entry.target}: expected <path>:<qualname>")
        elif not any(covers(entry, d) for d in defs):
            problems.append(f"allow.txt:{entry.line}: {entry.target}: no such def")
        if not entry.reason:
            problems.append(f"allow.txt:{entry.line}: {entry.target}: no reason given")
    return problems


def classify(
    defs: Sequence[Def], reached: Set[Def], entries: List[Entry]
) -> Tuple[List[Def], List[str]]:
    """``(unreached defs, problems)`` for one sweep against ``allow.txt``."""
    problems = check_entries(entries, defs)
    unreached = [d for d in defs if d not in reached]
    for d in unreached:
        if not any(covers(e, d) for e in entries):
            problems.append(f"{d.key} (line {d.first_line}, {d.lines} lines): "
                            f"production never reaches it and allow.txt does not list it")
    for entry in entries:
        hit = [d for d in defs if covers(entry, d) and d in reached]
        if hit:
            problems.append(f"allow.txt:{entry.line}: {entry.target}: production reaches "
                            f"{hit[0].key}; drop the entry")
    return unreached, problems


# ----------------------------------------------------------------------
# the sweep
# ----------------------------------------------------------------------


def _repro(*args: str) -> List[str]:
    return [sys.executable, "-m", "repro", *args]


def _example(name: str, *args: str) -> List[str]:
    return [sys.executable, str(REPO / "examples" / f"{name}.py"), *args]


def sweep_chains(work: Path) -> List[List[List[str]]]:
    """Commands to run; each inner list runs in order (later ones read earlier output)."""
    store = str(work / "store")
    chaos_out = str(work / "chaos")
    spans = str(work / "spans.jsonl")
    return [
        [_example("measurement_week", "--peak", "40")],
        [_repro("chaos", "run", "all", "--clients", "4", "--seed", "11", "--out", chaos_out),
         _repro("chaos", "report", f"{chaos_out}.manager_crash_mid_storm.json")],
        [[sys.executable, str(REPO / "bench" / "run.py"), "--quick"]],
        [_repro("overlay", "storm", "--viewers", "120", "--sampler", "both", "--verify-index"),
         _repro("overlay", "storm", "--viewers", "60", "--partitions", "2")],
        [_repro("week", "--peak", "40", "--channels", "8"),
         _repro("ablations"),
         _repro("calibrate", "--repetitions", "3")],
        [_repro("demo"),
         _repro("demo", "--traced"),
         _repro("trace", "storm", "--clients", "3", "--out", spans),
         _repro("trace", "report", spans, "--tree"),
         _repro("threats")],
        [_repro("shard", "plan", "--add-um", "1", "--add-cm", "1"),
         _repro("shard", "status"),
         _repro("shard", "rebalance", "--add-um", "1", "--add-cm", "1"),
         _repro("storm", "--shards", "2", "--clients", "2", "--horizon", "60",
                "--workers", "2", "--check-determinism"),
         _repro("store", "inspect", store),
         _repro("store", "verify", store),
         _repro("store", "compact", store)],
        [_example(name) for name in (
            "quickstart", "broadcaster_blackout", "flash_crowd_event",
            "ppv_and_royalties", "threat_playbook")],
    ]


def _write_store(path: Path) -> None:
    """A small WAL for the ``store`` commands (written untraced)."""
    sys.path.insert(0, str(SRC))
    from repro.store import DurableStore, FileBackend

    store = DurableStore(FileBackend(str(path)))
    for i in range(4):
        store.append(1, bytes([i]) * 8)


def _run_chain(chain: List[List[str]], env: Dict[str, str], cwd: Path) -> Optional[str]:
    for command in chain:
        done = subprocess.run(command, cwd=cwd, env=env, capture_output=True, text=True)
        label = " ".join(Path(c).name if os.sep in c else c for c in command[1:])
        if done.returncode != 0:
            return f"{label}: exit {done.returncode}\n{done.stderr[-2000:]}"
        print(f"  ran {label}", flush=True)
    return None


def run_sweep(index: Dict[Tuple[str, int], Def]) -> Set[Def]:
    """Run every surface under the hook; return the defs they entered."""
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        record = work / "reach"
        record.mkdir()
        _write_store(work / "store")
        env = dict(os.environ, PYTHONHASHSEED="0")
        env[ENV_VAR] = str(record)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(HERE), str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        )
        with ThreadPoolExecutor(max_workers=JOBS) as pool:
            failures = [f for f in pool.map(
                lambda chain: _run_chain(chain, env, work), sweep_chains(work)) if f]
        if failures:
            for failure in failures:
                print(f"sweep failed: {failure}", file=sys.stderr)
            raise SystemExit(2)
        return load_reached(record, index)


def load_reached(record: Path, index: Dict[Tuple[str, int], Def]) -> Set[Def]:
    reached = set()
    for file in record.glob("*.txt"):
        for row in file.read_text(encoding="utf-8").splitlines():
            line, _, path = row.partition("\t")
            d = index.get((os.path.realpath(path), int(line)))
            if d is not None:
                reached.add(d)
    return reached


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--list", action="store_true", help="print every unreached def")
    args = parser.parse_args(argv)

    index = {(os.path.realpath(f), n): d for (f, n), d in index_defs().items()}
    defs = sorted(index.values(), key=lambda d: (d.path, d.first_line))
    unreached, problems = classify(defs, run_sweep(index), parse_allow())
    total = sum(d.lines for d in defs)
    cold = sum(d.lines for d in unreached)
    print(f"defs: {len(defs)} in src/repro, {len(defs) - len(unreached)} reached by "
          f"production, {len(unreached)} unreached")
    print(f"function-body lines: {total}, reached {total - cold}, unreached {cold}")
    if args.list:
        for d in unreached:
            print(f"  {d.lines:5d}  {d.key}")
    for problem in problems:
        print(f"error: {problem}", file=sys.stderr)
    if not problems:
        print("allow.txt lists every unreached def and nothing production reaches")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
