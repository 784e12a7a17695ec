"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_all_commands_registered(self):
        parser = build_parser()
        for command in ("week", "calibrate", "ablations", "demo", "threats"):
            args = parser.parse_args([command] if command != "week" else ["week"])
            assert args.command == command or command != "week"

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_week_options(self):
        args = build_parser().parse_args(["week", "--peak", "99", "--channels", "7"])
        assert args.peak == 99
        assert args.channels == 7


class TestCommands:
    def test_demo_runs(self, capsys):
        assert main(["demo", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "logged in" in out
        assert "decrypted 2 packets" in out

    def test_calibrate_runs(self, capsys):
        assert main(["calibrate", "--repetitions", "3"]) == 0
        out = capsys.readouterr().out
        assert "switch2" in out

    def test_ablations_run(self, capsys):
        assert main(["ablations", "--seed", "2"]) == 0
        out = capsys.readouterr().out
        for marker in ("A1", "A2", "A3", "A4", "A5"):
            assert marker in out


class TestStoreCommand:
    def _store_dir(self, tmp_path):
        from repro.store import DurableStore, FileBackend

        path = str(tmp_path / "cm-default")
        store = DurableStore(FileBackend(path))
        for i in range(4):
            store.append(1, bytes([i]) * 8)
        return path

    def test_verify_healthy(self, tmp_path, capsys):
        path = self._store_dir(tmp_path)
        assert main(["store", "verify", path]) == 0
        assert "healthy" in capsys.readouterr().out

    def test_inspect_prints_histogram(self, tmp_path, capsys):
        path = self._store_dir(tmp_path)
        assert main(["store", "inspect", path]) == 0
        out = capsys.readouterr().out
        assert "record types" in out
        assert "type 1: 4" in out

    def test_torn_tail_fails_then_compact_heals(self, tmp_path, capsys):
        import os

        path = self._store_dir(tmp_path)
        wal = os.path.join(path, "wal.bin")
        with open(wal, "r+b") as fh:
            fh.truncate(os.path.getsize(wal) - 3)
        assert main(["store", "verify", path]) == 1
        assert "torn tail" in capsys.readouterr().out
        assert main(["store", "compact", path]) == 0
        assert main(["store", "verify", path]) == 0

    def test_missing_directory_is_an_error_and_not_created(self, tmp_path, capsys):
        import os

        path = str(tmp_path / "typo" / "cm-default")
        assert main(["store", "verify", path]) == 2
        assert "no store directory" in capsys.readouterr().err
        assert not os.path.exists(path)

    def test_corrupt_snapshot_is_a_clean_error(self, tmp_path, capsys):
        import os

        path = self._store_dir(tmp_path)
        with open(os.path.join(path, "snapshot.bin"), "wb") as fh:
            fh.write(b"\x00" * 32)
        assert main(["store", "verify", path]) == 2
        assert "error:" in capsys.readouterr().err


class TestShardCommand:
    ARGS = ["--users", "24", "--channels", "6", "--vnodes", "64"]

    def test_plan_prints_placement_and_movement(self, capsys):
        assert main(["shard", "plan", "--add-um", "1", "--add-cm", "1"] + self.ARGS) == 0
        out = capsys.readouterr().out
        assert "user shard" in out
        assert "channel shard" in out
        assert "keys move" in out
        assert "ideal minimum" in out

    def test_status_reports_ok_on_healthy_deployment(self, capsys):
        assert main(["shard", "status"] + self.ARGS) == 0
        out = capsys.readouterr().out
        assert "user directory" in out
        assert "viewing partition" in out
        assert "invariants: OK" in out

    def test_rebalance_executes_and_verifies(self, capsys):
        assert main(["shard", "rebalance", "--add-um", "1", "--add-cm", "1"] + self.ARGS) == 0
        out = capsys.readouterr().out
        assert "resharded in user shard(s): domain-2" in out
        assert "resharded in channel shard(s): partition-0" in out
        assert "keys moved" in out
        assert "invariants: OK" in out

    def test_rebalance_without_additions_is_a_usage_error(self, capsys):
        assert main(["shard", "rebalance"] + self.ARGS) == 2
        assert "nothing to do" in capsys.readouterr().err


class TestThreatsCommand:
    def test_runs_outside_the_repo_root(self, tmp_path):
        import os
        import subprocess
        import sys
        from pathlib import Path

        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        done = subprocess.run(
            [sys.executable, "-m", "repro", "threats"],
            cwd=tmp_path, env=env, capture_output=True, text=True,
        )
        assert done.returncode == 0, done.stderr
        assert "=== 8. What the DRM concedes" in done.stdout
