"""Golden CLI transcripts: the surfaces, how one is captured, re-recording.

Each surface is one ``python -m repro`` command run in-process through
:func:`repro.cli.main`; its stdout, with wall-clock fields masked by
:data:`WALL_CLOCK`, is compared byte for byte against
``tests/golden/<surface>.txt`` by ``tests/golden/test_golden.py``.

Re-record (only when an output change is intended, and say why in
CHANGES.md)::

    PYTHONPATH=src python tests/golden/regen.py [surface ...]
"""

from __future__ import annotations

import contextlib
import io
import os
import re
import sys
from pathlib import Path
from typing import Dict, List, Tuple

GOLDEN_DIR = Path(__file__).resolve().parent

CHAOS_SCENARIOS = (
    "manager_crash_mid_storm",
    "rolling_restarts",
    "partition_cm_farm",
    "slow_station_brownout",
    "replica_flap",
    "shard_killed_mid_resharding",
    "polluting_parents",
    "key_withholding_parents",
    "depth_liars",
    "join_flood",
    "replay_storm",
)

#: surface name -> (argv, extra environment)
SURFACES: Dict[str, Tuple[List[str], Dict[str, str]]] = {
    **{
        f"chaos_{name}": (
            ["chaos", "run", name, "--clients", "4", "--seed", "11"],
            {"CHAOS_ADV_VIEWERS": "10"},
        )
        for name in CHAOS_SCENARIOS
    },
    "demo": (["demo", "--seed", "7"], {}),
    "trace_storm": (["trace", "storm", "--clients", "3"], {}),
    "overlay_storm": (
        ["overlay", "storm", "--viewers", "300", "--sampler", "ranked", "--verify-index"],
        {},
    ),
    "storm": (
        ["storm", "--shards", "2", "--clients", "2", "--horizon", "90",
         "--workers", "2", "--check-determinism"],
        {},
    ),
    "threats": (["threats"], {}),
}

#: The only non-deterministic output: seconds of wall clock, as in
#: ``0.14s wall`` and the ``per-shard busy: [0.05s, 0.06s]`` list.
WALL_CLOCK = re.compile(r"\d+\.\d+s(?= wall)|(?<=per-shard busy: )\[[^\]]*\]")


def normalise(text: str) -> str:
    return WALL_CLOCK.sub("<wall>", text)


def capture(name: str) -> Tuple[int, str]:
    """Run one surface in-process; return ``(exit code, masked stdout)``."""
    from repro.cli import main

    argv, env = SURFACES[name]
    saved = {key: os.environ.get(key) for key in env}
    os.environ.update(env)
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = main(list(argv))
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
    return code, normalise(out.getvalue())


def golden_path(name: str) -> Path:
    return GOLDEN_DIR / f"{name}.txt"


def main(names: List[str]) -> int:
    for name in names or list(SURFACES):
        code, text = capture(name)
        if code != 0:
            print(f"{name}: exit {code}, not recorded", file=sys.stderr)
            return 1
        golden_path(name).write_text(text, encoding="utf-8")
        print(f"recorded {golden_path(name).name} ({len(text.splitlines())} lines)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
