"""Every golden CLI transcript still prints byte for byte (see regen.py)."""

import difflib

import pytest

from tests.golden.regen import SURFACES, capture, golden_path, normalise


@pytest.mark.parametrize("name", sorted(SURFACES))
def test_transcript_matches_golden(name):
    expected = golden_path(name).read_text(encoding="utf-8")
    code, actual = capture(name)
    assert code == 0, f"repro {' '.join(SURFACES[name][0])} exited {code}"
    if actual != expected:
        diff = "".join(difflib.unified_diff(
            expected.splitlines(keepends=True),
            actual.splitlines(keepends=True),
            fromfile=f"golden/{name}.txt",
            tofile="actual",
        ))
        pytest.fail(f"transcript drifted (re-record with tests/golden/regen.py "
                    f"only if intended):\n{diff}")


def test_wall_clock_mask_touches_only_wall_clock_fields():
    line = "sharded storm: 2 shard(s), 0.14s wall\n  per-shard busy: [0.05s, 0.06s]"
    assert normalise(line) == "sharded storm: 2 shard(s), <wall> wall\n  per-shard busy: <wall>"
    assert normalise("join p50=120ms, horizon 60s, t=  12.5s") == \
        "join p50=120ms, horizon 60s, t=  12.5s"
