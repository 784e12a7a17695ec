#!/usr/bin/env python3
"""Run the viewer-path benchmark.

Driver form (the benchmark contract)::

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1

runs one workload in this interpreter and prints, as the last line of
standard output, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: every end-to-end metric of BENCHMARK.json
with ``--trace 0``, every per-layer metric with ``--trace 1``.

Suite form (no ``--workload``, or ``--repeats`` / ``--check-repeat``)::

    python3 bench/run.py --seed N [--trace] [--repeats R] [--quick]

runs every workload, each run in a fresh interpreter, and writes
``bench/out/result.json`` for ``bench/compare.py``.

End-to-end numbers always come from an untraced pass.  A traced run
does an untraced pass and then a traced pass of the same inputs in the
same interpreter, so that ``trace.overhead_ratio`` has its base.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import subprocess
import sys
from time import perf_counter
from typing import Dict, List, Optional

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import adapters  # noqa: E402
import stats  # noqa: E402
import trace as tracing  # noqa: E402
import workloads  # noqa: E402

OUT_DIR = os.path.join(BENCH_DIR, "out")
SPEC_PATH = os.path.join(adapters.REPO_ROOT, "BENCHMARK.json")
#: Set-up is repeated so that ``setup_s`` is a median, not one sample.
SETUP_REPEATS = 3
STREAM_LOOP_CALLS = 20000

def load_spec() -> dict:
    with open(SPEC_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def machine_block() -> dict:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
    }


# ----------------------------------------------------------------------
# one pass over the four segments
# ----------------------------------------------------------------------


def run_pass(api, tracer, seed: int, mix: workloads.Mix, setups: int):
    """Set up ``setups`` times, run the segments on the last set-up."""
    os.makedirs(OUT_DIR, exist_ok=True)
    setup_times: List[float] = []
    rigs = None
    for _ in range(setups):
        if rigs is not None:
            rigs.close()
        rigs = None
        gc.collect()
        rigs = workloads.Rigs(api, seed, mix, OUT_DIR)
        setup_times.append(rigs.setup_s)
    ctx = workloads.Context(api, tracer)
    try:
        marks = {}
        segments = {}
        for name, segment in workloads.iter_segments(ctx, rigs):
            segments[name] = segment
            if tracer is not None:
                marks[name] = (list(tracer.self_s), counter_snapshot(api))
    finally:
        rigs.close()
    return segments, setup_times, ctx.busy, marks


def end_to_end(segments, setup_times: List[float]) -> Dict[str, float]:
    crowd, steady, zap, rpc = (segments[k] for k in ("crowd", "steady", "zap", "rpc"))
    p = stats.percentile
    return {
        "setup_s": stats.summary(setup_times)["median"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "joins_per_s": crowd.counts["joins_ok"] / crowd.busy_s,
        "join_ms_p50": p(crowd.samples["join_ms"], 50),
        "join_ms_p95": p(crowd.samples["join_ms"], 95),
        "repair_ms_p50": p(crowd.samples["repair_ms"], 50),
        "deliveries_per_s": steady.counts["deliveries"] / steady.busy_s,
        "rekey_ms_p50": p(steady.samples["rekey_ms"], 50),
        "zap_ops_per_s": (zap.counts["switches_ok"] + zap.counts["renewals_ok"]) / zap.busy_s,
        "switch_ms_p50": p(zap.samples["switch_ms"], 50),
        "renew_ms_p50": p(zap.samples["renew_ms"], 50),
        "rpc_ops_per_s": rpc.counts["completions"] / rpc.busy_s,
        "switch_virt_ms_p95": p(rpc.samples["switch_virt_ms"], 95),
    }


def stream_loops(api, seed: int, calls: int) -> Dict[str, float]:
    """Direct timed loops over the stream cipher, per packet size."""
    key = api.SymmetricKey.generate(api.HmacDrbg(seed.to_bytes(8, "big"), b"bench-stream"))
    out = {}
    for size in workloads.PACKET_SIZES:
        payload = bytes(range(256)) * (size // 256 + 1)
        payload = payload[:size]
        aad = b"bench"
        started = perf_counter()
        for nonce in range(calls):
            sealed = key.encrypt(payload, nonce, aad)
        out[f"crypto.stream.seal_us_{size}"] = (perf_counter() - started) / calls * 1e6
        nonce = calls - 1
        started = perf_counter()
        for _ in range(calls):
            opened = key.decrypt(sealed, nonce, aad)
        out[f"crypto.stream.open_us_{size}"] = (perf_counter() - started) / calls * 1e6
        if opened != payload:
            raise SystemExit("bench: stream cipher round trip returned different bytes")
    return out


def per_layer(tracer, segments, counters, traced_busy, untraced_busy, loops):
    crowd, steady, zap, rpc = (segments[k] for k in ("crowd", "steady", "zap", "rpc"))
    out: Dict[str, float] = dict(loops)
    attributed = 0.0
    totals = tracer.totals()
    for name, total in totals.items():
        out[f"{name}.calls"] = total["calls"]
        out[f"{name}.self_ms"] = total["self_s"] * 1e3
        attributed += total["self_s"]
    hot, sel = counters["hotpath"], counters["selection"]
    lookups = hot["ticket_cache_hits"] + hot["ticket_cache_misses"]
    joins = crowd.counts["joins_ok"] + crowd.counts["first_packet_deferred"]
    p = stats.percentile
    out.update({
        "crypto.drbg.bytes": totals["crypto.drbg.generate"]["arg_sum"],
        "core.tickets.cache_hit_ratio": hot["ticket_cache_hits"] / lookups if lookups else 0.0,
        "core.policy.index_builds": hot["policy_index_builds"],
        "core.channel_manager.rejects": zap.counts["rejects"],
        "p2p.selection.candidates_per_request": (
            sel["candidates_considered"] / sel["requests"] if sel["requests"] else 0.0
        ),
        "p2p.selection.index_hit_ratio": sel["index_hits"] / sel["requests"] if sel["requests"] else 0.0,
        "p2p.overlay.attempts_per_join": crowd.counts["attempts_per_join"],
        "p2p.overlay.orphans_per_departure": crowd.counts["orphans"] / max(1, crowd.counts["departures"]),
        "p2p.overlay.tree_depth_mean": crowd.counts["tree_depth_mean"],
        "p2p.peer.join_rejects": crowd.counts["join_rejects"],
        "p2p.peer.dropped_undecryptable": steady.counts["dropped_undecryptable"],
        "sim.engine.events": rpc.counts["events"],
        "sim.engine.events_per_s": rpc.counts["events"] / rpc.busy_s,
        "sim.rpc.timeouts": rpc.counts["timeouts"],
        "sim.station.wait_virt_ms_mean": rpc.counts["station_wait_virt_ms_mean"],
        "sim.station.utilization": rpc.counts["station_utilization"],
        "store.wal_bytes": zap.counts["wal_bytes"],
        "harness.first_packet_deferred_share": crowd.counts["first_packet_deferred"] / max(1, joins),
        "harness.join_ms_p99": p(crowd.samples["join_ms"], 99),
        "harness.switch_ms_p99": p(zap.samples["switch_ms"], 99),
        "harness.packet_ms_p95": p(steady.samples["packet_ms"], 95),
        "harness.unattributed_share": 1.0 - attributed / traced_busy,
        "trace.overhead_ratio": traced_busy / untraced_busy,
    })
    return out


def counter_snapshot(api) -> Dict[str, Dict[str, int]]:
    return {
        "hotpath": api.hotpath_counters.snapshot(),
        "selection": api.selection_counters.snapshot(),
        "dataplane": api.dataplane_counters.snapshot(),
    }


def counter_delta(before, after):
    return {
        group: {key: after[group][key] - before[group][key] for key in after[group]}
        for group in after
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, quick: bool) -> dict:
    spec = load_spec()
    api = adapters.load()
    mix = workloads.scaled(workloads.WORKLOADS[name], seconds, quick)
    detail = {"workload": name, "seed": seed, "seconds": seconds, "quick": quick, "mix": mix.__dict__}
    if not trace:
        segments, setup_times, busy, _ = run_pass(api, None, seed, mix, 1 if quick else SETUP_REPEATS)
        values = end_to_end(segments, setup_times)
        detail["setup_times_s"] = setup_times
    else:
        loops = stream_loops(api, seed, STREAM_LOOP_CALLS // 20 if quick else STREAM_LOOP_CALLS)
        untraced_segments, _, untraced_busy, _ = run_pass(api, None, seed, mix, 1)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            before = counter_snapshot(api)
            origin = perf_counter()
            segments, _, busy, marks = run_pass(api, tracer, seed, mix, 1)
            counters = counter_delta(before, counter_snapshot(api))
        finally:
            tracer.uninstall()
        values = per_layer(tracer, segments, counters, busy, untraced_busy, loops)
        trace_path = os.path.join(OUT_DIR, f"trace-{name}.jsonl")
        tracer.write_jsonl(trace_path, origin)
        detail["trace_file"] = os.path.relpath(trace_path, adapters.REPO_ROOT)
        detail["spans"] = tracer.span_count
        detail["untraced_busy_s"] = untraced_busy
        detail["by_segment"] = segment_budget(tracer, marks, before)
        # The traced pass must reach the same outcomes as the untraced one.
        for key, segment in segments.items():
            if segment.attempted != untraced_segments[key].attempted:
                segment.fail(
                    f"traced pass attempted {segment.attempted} operations, "
                    f"untraced {untraced_segments[key].attempted}"
                )
    units = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    if set(values) != set(units):
        raise SystemExit(
            "bench: metrics do not match BENCHMARK.json: "
            f"missing {sorted(set(units) - set(values))}, extra {sorted(set(values) - set(units))}"
        )
    attempted = sum(s.attempted for s in segments.values())
    failed = sum(s.failed for s in segments.values())
    problems = [f"{key}: {text}" for key, s in segments.items() for text in s.problems]
    detail.update({
        "busy_s": busy,
        "segments": {
            key: {"busy_s": s.busy_s, "attempted": s.attempted, "failed": s.failed,
                  "counts": s.counts, "samples": {k: len(v) for k, v in s.samples.items()}}
            for key, s in segments.items()
        },
        "problems": problems,
    })
    return {
        "result": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": values[k], "unit": units[k]} for k in sorted(values)},
        },
        "detail": detail,
    }


def segment_budget(tracer, marks, counters_before) -> Dict[str, dict]:
    """Per segment: self time per layer boundary (ms) and counter growth."""
    budget: Dict[str, dict] = {}
    previous = [0.0] * len(tracer.names)
    for segment, (self_s, counters) in marks.items():
        budget[segment] = {
            "self_ms": {
                name: (self_s[i] - previous[i]) * 1e3
                for i, name in enumerate(tracer.names)
                if self_s[i] - previous[i] > 0
            },
            "counters": counter_delta(counters_before, counters),
        }
        previous, counters_before = self_s, counters
    return budget


# ----------------------------------------------------------------------
# command line
# ----------------------------------------------------------------------


def print_run(outcome: dict) -> None:
    detail, result = outcome["detail"], outcome["result"]
    print(f"# workload {detail['workload']} seed {detail['seed']} seconds {detail['seconds']}"
          f"{' quick' if detail['quick'] else ''}; timed {detail['busy_s']:.2f} s")
    for key, seg in detail["segments"].items():
        print(f"#   {key:<7} busy {seg['busy_s']:.3f} s  attempted {seg['attempted']}  failed {seg['failed']}")
    for text in detail["problems"]:
        print(f"# PROBLEM {text}")
    for name, metric in result["metrics"].items():
        print(f"{name:<48} {metric['value']:>16.6f} {metric['unit']}")
    print(json.dumps(result))


def ensure_hash_seed() -> None:
    """Fix str hashing so set iteration order, hence the run, repeats per seed."""
    if os.environ.get("PYTHONHASHSEED") != "0":
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable] + sys.argv, env)


def child_run(workload: str, seed: int, seconds: float, trace: bool, quick: bool) -> dict:
    """One workload in a fresh interpreter; returns its final JSON line."""
    command = [
        sys.executable, os.path.abspath(__file__), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace)),
    ]
    if quick:
        command.append("--quick")
    done = subprocess.run(command, capture_output=True, text=True, env=dict(os.environ, PYTHONHASHSEED="0"))
    lines = done.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit(f"bench: {workload} seed {seed} exited {done.returncode} without a result")
    result = json.loads(lines[-1])
    result["returncode"] = done.returncode
    if done.returncode != 0:
        sys.stderr.write("".join(f"{line}\n" for line in lines if line.startswith("# PROBLEM")))
    return result


def run_set(names: List[str], seed: int, repeats: int, seconds: float, trace: bool, quick: bool) -> dict:
    """``repeats`` untraced runs (seeds seed, seed+1, ...) and, if asked, one traced run."""
    out = {}
    for name in names:
        runs = []
        for repeat in range(repeats):
            result = child_run(name, seed + repeat, seconds, False, quick)
            runs.append(result)
            print(f"  {name} seed {seed + repeat}: correct {result['correct']} "
                  f"attempted {result['attempted']} failed {result['failed']}", flush=True)
        entry = {
            "seeds": [seed + r for r in range(repeats)],
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "correct": all(r["correct"] for r in runs),
            "end_to_end": {},
        }
        for metric in runs[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in runs]
            entry["end_to_end"][metric] = dict(
                stats.summary(values), unit=runs[0]["metrics"][metric]["unit"], values=values
            )
        if trace:
            traced = child_run(name, seed, seconds, True, quick)
            entry["per_layer"] = {k: dict(v) for k, v in traced["metrics"].items()}
            entry["correct"] = entry["correct"] and traced["correct"]
        out[name] = entry
    return out


def print_set(result: dict) -> None:
    for name, entry in result.items():
        print(f"\n== {name}: attempted {entry['attempted']} failed {entry['failed']} "
              f"(seeds {entry['seeds'][0]}..{entry['seeds'][-1]})")
        for metric, s in entry["end_to_end"].items():
            print(f"{metric:<22} median {s['median']:>14.4f} {s['unit']:<11} "
                  f"q1 {s['q1']:.4f} q3 {s['q3']:.4f} spread {s['spread']:.4f} n {s['n']}")
        for metric, value in entry.get("per_layer", {}).items():
            print(f"{metric:<48} {value['value']:>16.6f} {value['unit']}")


def check_repeat(first: dict, second: dict, spec: dict) -> List[str]:
    """Differences between two sets of one commit that exceed the bounds."""
    complaints = []
    for name in first:
        for metric in spec["end_to_end"]:
            key, bound = metric["name"], metric["bound"]
            a, b = first[name]["end_to_end"][key], second[name]["end_to_end"][key]
            drift = stats.worse_by(a["median"], b["median"], metric["better"])
            if drift > bound:
                complaints.append(f"{name} {key}: second median {b['median']:.4f} worse than "
                                  f"first {a['median']:.4f} by {drift:.3f} > bound {bound}")
            if key != "setup_s":
                for label, s in (("first", a), ("second", b)):
                    if s["spread"] > bound:
                        complaints.append(f"{name} {key}: {label} set spread {s['spread']:.3f} > bound {bound}")
    return complaints


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), help="run one workload in this interpreter")
    parser.add_argument("--seed", type=int, default=20110620, help="workload seed (dev seed by default)")
    parser.add_argument("--seconds", type=float, default=None, help="length of the timed region (BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0, choices=(0, 1), help="traced pass: per-layer metrics")
    parser.add_argument("--repeats", type=int, default=None, help="suite: untraced runs per workload, seeds seed..seed+R-1")
    parser.add_argument("--check-repeat", action="store_true", help="suite: run two sets and compare them with the bounds")
    parser.add_argument("--quick", action="store_true", help="1/20 of the operation counts; not comparable")
    args = parser.parse_args(argv)
    ensure_hash_seed()
    spec = load_spec()
    seconds = args.seconds if args.seconds is not None else float(spec["run_seconds"])

    if args.workload and args.repeats is None and not args.check_repeat:
        outcome = run_workload(args.workload, args.seed, seconds, bool(args.trace), args.quick)
        os.makedirs(OUT_DIR, exist_ok=True)
        with open(os.path.join(OUT_DIR, f"detail-{args.workload}-t{args.trace}.json"), "w", encoding="utf-8") as handle:
            json.dump(outcome["detail"], handle, indent=1)
        print_run(outcome)
        return 0 if outcome["result"]["correct"] else 1

    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    repeats = args.repeats or (10 if args.check_repeat else 1)
    document = {"machine": machine_block(), "quick": args.quick, "seconds": seconds, "seed": args.seed}
    print(f"set 1: {repeats} run(s) per workload", flush=True)
    document["workloads"] = run_set(names, args.seed, repeats, seconds, bool(args.trace), args.quick)
    print_set(document["workloads"])
    complaints = []
    if args.check_repeat:
        print(f"\nset 2: {repeats} run(s) per workload", flush=True)
        document["second_set"] = run_set(names, args.seed, repeats, seconds, False, args.quick)
        print_set(document["second_set"])
        complaints = check_repeat(document["workloads"], document["second_set"], spec)
        document["check_repeat"] = {"passed": not complaints, "complaints": complaints}
        for text in complaints:
            print(f"CHECK-REPEAT {text}")
        print(f"\ncheck-repeat: {'passed' if not complaints else 'FAILED'}")
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, "result.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1)
    print(f"\nwrote {os.path.relpath(path)}")
    correct = all(entry["correct"] for entry in document["workloads"].values())
    return 0 if correct and not complaints else 1


if __name__ == "__main__":
    sys.exit(main())
