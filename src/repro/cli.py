"""Command-line interface: ``python -m repro <command>``.

Commands:

``week``       simulate the measurement week, print Figs. 5 & 6
``calibrate``  microbenchmark the functional handlers (service times)
``ablations``  print the A1-A5 ablation tables
``demo``       a compact end-to-end walk-through of Fig. 1
``threats``    run the Section IV-G scenarios and report outcomes
``store``      inspect / verify / compact an on-disk durable store
``trace``      run a traced switch storm / report a saved span buffer
``chaos``      run failure-injection scenarios / report a saved run
``storm``      sharded switch storm across worker processes (repro.parallel)

Each command is a thin wrapper over the library -- everything the CLI
prints is available programmatically from :mod:`repro.experiments`.
"""

from __future__ import annotations

import argparse
import random
import sys
from typing import List, Optional


def _cmd_week(args: argparse.Namespace) -> int:
    from repro.experiments import fig5, fig6
    from repro.experiments.common import WeeklongConfig
    from repro.experiments.weeklong import WeeklongRunner

    config = WeeklongConfig(peak_concurrent=args.peak, n_channels=args.channels)
    print(f"simulating one week at peak {config.peak_concurrent} concurrent ...")
    result = WeeklongRunner(config).run()
    print(f"{len(result.trace.sessions)} sessions, "
          f"{len(result.trace.events)} protocol operations\n")
    for panel in ("a-login", "b-switch", "c-join"):
        print(fig5.render_panel(result, panel))
        print()
    print(fig5.paper_comparison(result))
    print()
    for panel in ("a-login", "b-switch", "c-join"):
        print(fig6.render_panel(result, panel))
        print()
    return 0


def _cmd_calibrate(args: argparse.Namespace) -> int:
    from repro.experiments.calibration import calibrate

    report = calibrate(repetitions=args.repetitions)
    print("measured mean service times (functional handlers, this machine):")
    for name in ("login1", "login2", "switch1", "switch2", "join_peer", "client_compute"):
        print(f"  {name:14s} {getattr(report, name) * 1000:8.3f} ms")
    print("\nfeed into simulations via "
          "WeeklongConfig(service=report.as_service_times())")
    return 0


def _cmd_ablations(args: argparse.Namespace) -> int:
    from repro.experiments.ablations import (
        farm_scaling,
        keydist_comparison,
        rekey_tradeoff,
        ticket_lifetime_tradeoff,
        traditional_comparison,
    )
    from repro.metrics.reporting import format_table

    rng = random.Random(args.seed)

    print("A1 - manager farm scaling under a flash crowd")
    rows = [
        (p.n_servers, f"{p.mean_wait * 1000:.1f}", f"{p.p95_wait * 1000:.1f}", p.max_queue)
        for p in farm_scaling(rng, arrivals=5000)
    ]
    print(format_table(["servers", "mean wait (ms)", "p95 wait (ms)", "max queue"], rows))

    print("\nA2 - key distribution: central fetch vs P2P push")
    rows = [
        (r.clients, r.central_requests_per_rekey, f"{r.central_p99_wait:.3f}",
         r.push_server_messages, r.push_depth, f"{r.push_propagation:.3f}")
        for r in keydist_comparison(rng)
    ]
    print(format_table(
        ["audience", "central req/rekey", "central p99 (s)",
         "push infra msgs", "push depth", "push prop (s)"], rows))

    print("\nA3 - traditional vs event licensing (servers for 3 s SLA)")
    rows = [
        (r.arrivals, r.traditional_servers_for_sla, r.ours_servers_for_sla)
        for r in traditional_comparison(rng, audiences=(1000, 5000))
    ]
    print(format_table(["audience", "traditional", "ours"], rows))

    print("\nA4 - re-key interval")
    rows = [(r.epoch, r.keys_per_hour, f"{r.exposure_window:.0f}s") for r in rekey_tradeoff()]
    print(format_table(["epoch (s)", "keys/hour/link", "leak exposure"], rows))

    print("\nA5 - ticket lifetime")
    rows = [
        (r.lifetime, f"{r.renewals_per_viewer_hour:.1f}",
         f"{r.blackout_lead_time:.0f}s")
        for r in ticket_lifetime_tradeoff()
    ]
    print(format_table(["lifetime (s)", "renewals/viewer-hour", "blackout lead"], rows))
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    from repro import Deployment

    deployment = Deployment(seed=args.seed)
    deployment.add_free_channel("demo", regions=["CH", "DE"])
    tracer = deployment.enable_tracing() if args.traced else None
    client = deployment.create_client("demo@example.org", "pw", region="CH")
    ticket = client.login(now=0.0)
    print(f"logged in: UserIN={ticket.user_id}, "
          f"attributes={[(a.name, a.value) for a in ticket.attributes]}")
    peer = deployment.watch(client, "demo", now=1.0)
    print(f"watching 'demo' as {peer.peer_id}; parents={list(client.parents)}")
    source = deployment.overlay("demo").source
    source.broadcast_packet(10.0)
    source.tick(55.0)
    source.broadcast_packet(65.0)
    print(f"decrypted {client.packets_decrypted} packets across a key rotation "
          f"({client.decrypt_failures} failures)")
    if tracer is not None:
        from repro.trace import render_report, render_tree

        print()
        print(render_report(tracer.spans))
        print()
        print(render_tree(tracer.spans))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.trace import load_spans, render_report, render_tree

    if args.action == "report":
        spans = load_spans(args.path)
        print(render_report(spans))
        if args.tree:
            print()
            print(render_tree(spans, trace_id=args.trace_id))
        return 0

    if args.action == "storm":
        from repro.trace.storm import run_switch_storm

        result = run_switch_storm(clients=args.clients, seed=args.seed)
        print(f"storm done at t={result.sim.now:.1f}s: {result.counts}")
        if result.errors:
            print(f"errors: {[type(e).__name__ for e in result.errors]}")
        spans = result.tracer.spans
        if args.out:
            count = result.tracer.save(args.out)
            print(f"saved {count} spans to {args.out}")
        print()
        print(render_report(spans))
        print()
        print(render_tree(spans, trace_id=args.trace_id))
        if not spans:
            # The CI smoke test keys on this: a traced storm that
            # records nothing means the propagation plumbing broke.
            print("error: traced storm recorded no spans", file=sys.stderr)
            return 1
        return 0
    raise AssertionError(f"unknown action {args.action!r}")


def _format_store_report(path: str, report) -> str:
    lines = [f"store: {path}"]
    if report.snapshot_seq is None:
        lines.append("  snapshot: none")
    else:
        lines.append(
            f"  snapshot: seq {report.snapshot_seq}, {report.snapshot_bytes} bytes, "
            f"taken at t={report.snapshot_taken_at}"
            + (f" (age {report.snapshot_age:.1f}s)" if report.snapshot_age is not None else "")
        )
    lines.append(
        f"  wal: {report.wal_records} records, {report.wal_bytes} bytes"
        f" ({report.covered_records} covered by the snapshot)"
    )
    if report.torn_bytes:
        lines.append(f"  torn tail: {report.torn_bytes} bytes")
    for problem in report.problems:
        lines.append(f"  PROBLEM: {problem}")
    lines.append(f"  status: {'healthy' if report.healthy else 'NEEDS ATTENTION'}")
    return "\n".join(lines)


def _cmd_store(args: argparse.Namespace) -> int:
    import os

    from repro.store import DurableStore, FileBackend, StoreError

    if not os.path.isdir(args.path):
        # FileBackend would happily create the directory -- right for a
        # manager starting fresh, wrong for a maintenance tool: a typo'd
        # path must not become an empty "healthy" store.
        print(f"error: no store directory at {args.path}", file=sys.stderr)
        return 2
    try:
        store = DurableStore(FileBackend(args.path))
    except StoreError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.action == "inspect":
        report = store.verify()
        print(_format_store_report(args.path, report))
        counts: dict = {}
        from repro.store import scan
        from repro.store.store import WAL_NAME

        for record in scan(store._backend.read(WAL_NAME)).records:
            counts[record.rec_type] = counts.get(record.rec_type, 0) + 1
        if counts:
            print("  record types:")
            for rec_type in sorted(counts):
                print(f"    type {rec_type}: {counts[rec_type]}")
        return 0
    if args.action == "verify":
        report = store.verify()
        print(_format_store_report(args.path, report))
        return 0 if report.healthy else 1
    if args.action == "compact":
        before = store.wal_bytes()
        report = store.compact()
        print(f"compacted: {before} -> {report.wal_bytes} WAL bytes")
        print(_format_store_report(args.path, report))
        return 0 if report.healthy else 1
    raise AssertionError(f"unknown action {args.action!r}")


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.sim.chaos import (
        SCENARIOS, ChaosConfig, load_result, render_result, run_scenario,
    )

    if args.action == "report":
        result = load_result(args.path)
        print(render_result(result))
        return 0 if result.passed else 1

    if args.action == "run":
        names = list(SCENARIOS) if args.scenario == "all" else [args.scenario]
        config = ChaosConfig(seed=args.seed, clients=args.clients)
        failed = 0
        for index, name in enumerate(names):
            result = run_scenario(name, config)
            if index:
                print()
            print(render_result(result))
            if args.out:
                path = args.out if len(names) == 1 else f"{args.out}.{name}.json"
                result.save(path)
                print(f"  saved to {path}")
            if not result.passed:
                failed += 1
        if failed:
            # The CI smoke job keys on this exit code: an invariant
            # violation under injected faults must fail the build.
            print(f"error: {failed} scenario(s) failed", file=sys.stderr)
            return 1
        return 0
    raise AssertionError(f"unknown action {args.action!r}")


def _cmd_shard(args: argparse.Namespace) -> int:
    from repro.deployment import Deployment
    from repro.metrics.reporting import format_table
    from repro.sharding import directory_state_violations, plan_movement

    partitions = tuple(f"part-{i}" for i in range(args.partitions))
    deployment = Deployment(
        seed=args.seed, n_domains=args.domains, partitions=partitions
    )
    channels = [f"channel-{i:03d}" for i in range(args.channels)]
    emails = [f"user{i:05d}@example.org" for i in range(args.users)]
    for email in emails:
        deployment.accounts.register(email, f"pw-{email}")
    runtime = deployment.enable_sharding(vnodes=args.vnodes)
    for channel_id in channels:
        deployment.add_free_channel(channel_id, regions=["CH"])

    if args.action == "plan":
        print(
            f"ring placement: {args.users} users over {args.domains} domain(s), "
            f"{args.channels} channels over {args.partitions} partition(s), "
            f"vnodes={runtime.vnodes}"
        )
        load = runtime.user_directory.ring.load(emails)
        rows = [
            (shard, count, f"{count / max(1, args.users):.1%}")
            for shard, count in sorted(load.items())
        ]
        print(format_table(["user shard", "keys", "share"], rows))
        print()
        cload = runtime.channel_directory.ring.load(channels)
        rows = [
            (shard, count, f"{count / max(1, args.channels):.1%}")
            for shard, count in sorted(cload.items())
        ]
        print(format_table(["channel shard", "keys", "share"], rows))

        for kind, add, ring, keys in (
            ("user", args.add_um, runtime.user_directory.ring, emails),
            ("channel", args.add_cm, runtime.channel_directory.ring, channels),
        ):
            if not add:
                continue
            after = ring.copy()
            new_names = [f"new-{kind}-{j}" for j in range(add)]
            for name in new_names:
                after.add_node(name)
            movement = plan_movement(ring, after, keys)
            ideal = add / max(1, len(after))
            print()
            print(
                f"adding {add} {kind} shard(s): {movement.moved_count} of "
                f"{movement.total_keys} keys move "
                f"({movement.moved_fraction:.1%}; ideal minimum {ideal:.1%})"
            )
            for name in new_names:
                print(f"  -> {name}: {len(movement.moved_to(name))} keys")
        return 0

    if args.action == "rebalance":
        if args.add_um:
            added = deployment.add_user_manager_shards(args.add_um)
            print(f"resharded in user shard(s): {', '.join(added)}")
        if args.add_cm:
            added = deployment.add_channel_manager_shards(args.add_cm)
            print(f"resharded in channel shard(s): {', '.join(added)}")
        if not args.add_um and not args.add_cm:
            print("nothing to do (pass --add-um/--add-cm)", file=sys.stderr)
            return 2
        counters = runtime.counters.snapshot()
        print(
            f"  keys moved: {counters['keys_moved']}, "
            f"migration bytes: {counters['migration_bytes']}, "
            f"migrations: {counters['migrations_completed']} completed / "
            f"{counters['migrations_rolled_back']} rolled back, "
            f"replayed operations: {counters['replayed_operations']}"
        )
        # fall through to the status dump + invariant check

    for email in emails:  # populate per-shard load tallies
        runtime.user_directory.shard_for(email)
    for channel_id in channels:
        runtime.channel_directory.shard_for(channel_id)

    status = runtime.status()
    for key in ("user_directory", "channel_directory"):
        dump = status[key]
        print(f"{dump['kind']} directory: {len(dump['shards'])} shard(s), "
              f"vnodes={dump['vnodes']}, {dump['lookups']} lookups")
        rows = [(shard, dump["load"].get(shard, 0)) for shard in dump["shards"]]
        print(format_table(["shard", "lookups"], rows))
        if dump["pins"]:
            print(f"  pins: {dump['pins']}")
        if dump["frozen"]:
            print(f"  FROZEN (mid-reshard): {len(dump['frozen'])} keys")
        print()
    viewing = status["viewing"]
    rows = [
        (name, viewing["entries"].get(name, 0))
        for name in sorted(viewing["partitions"])
    ]
    print(format_table(["viewing partition", "entries"], rows))

    violations = directory_state_violations(deployment, runtime)
    if viewing["misplaced_users"]:
        violations.append(
            f"viewing histories off their owning partition: {viewing['misplaced_users']}"
        )
    if violations:
        print(f"\nerror: {len(violations)} invariant violation(s):", file=sys.stderr)
        for violation in violations:
            print(f"  {violation}", file=sys.stderr)
        return 1
    print("\ninvariants: OK (directory state complete, viewing log partitioned by owner)")
    return 0


def _cmd_storm(args: argparse.Namespace) -> int:
    from repro.parallel import ShardStormConfig, run_sharded_storm

    config = ShardStormConfig(
        shards=args.shards,
        clients_per_shard=args.clients,
        seed=args.seed,
        horizon=args.horizon,
    )
    outcome = run_sharded_storm(config, workers=args.workers)
    print(
        f"sharded storm: {outcome.shards} shard(s) on {outcome.workers} "
        f"worker(s), {outcome.windows} windows, "
        f"{outcome.bridge_messages} bridge messages, "
        f"{outcome.wall_seconds:.2f}s wall"
    )
    print(f"  operations: {dict(sorted(outcome.counts.items()))}")
    busy = ", ".join(f"{b:.2f}s" for b in outcome.per_shard_busy)
    print(f"  per-shard busy: [{busy}]")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            for line in outcome.transcript:
                fh.write(line + "\n")
        print(f"  saved {len(outcome.transcript)} transcript lines to {args.out}")
    failed = False
    if outcome.errors:
        print(f"error: {len(outcome.errors)} protocol error(s):", file=sys.stderr)
        for err in outcome.errors[:10]:
            print(f"  {err}", file=sys.stderr)
        failed = True
    if args.check_determinism:
        # The CI smoke job keys on this: re-run sequentially and demand
        # byte equality, whatever worker count the first run used.
        check = run_sharded_storm(config, workers=1)
        if check.transcript == outcome.transcript:
            print(f"  determinism: sequential re-run identical "
                  f"({len(outcome.transcript)} lines)")
        else:
            print("error: sequential re-run transcript differs", file=sys.stderr)
            failed = True
    return 1 if failed else 0


def _cmd_overlay(args: argparse.Namespace) -> int:
    import json
    from dataclasses import replace

    from repro.p2p.storm import OverlayStormConfig, run_overlay_storm
    from repro.trace.report import render_join_breakdown

    base = OverlayStormConfig(
        viewers=args.viewers,
        seed=args.seed,
        event_duration=args.duration,
        ramp=args.ramp,
        mid_departure_fraction=args.churn,
        partitions=args.partitions,
        verify_index=args.verify_index,
    )
    arms = ("ranked", "uniform") if args.sampler == "both" else (args.sampler,)
    payloads = {}
    for name in arms:
        result = run_overlay_storm(replace(base, sampler=name))
        payload = result.as_dict()
        payloads[name] = payload
        join = payload["join_latency"]
        repair = payload["repair_time"]
        print(
            f"{name}: {payload['joined']} joined "
            f"({payload['join_failures']} failed), "
            f"join p50={join['p50'] * 1000:.0f}ms p99={join['p99'] * 1000:.0f}ms, "
            f"repair p50={repair['p50'] * 1000:.0f}ms "
            f"({payload['repairs_failed']} failed), "
            f"locality parent={payload['parent_locality']} "
            f"repair={payload['repair_locality']}, "
            f"depth mean={payload['mean_depth']} max={payload['max_depth']}"
        )
        sel = payload["selection"]
        print(
            f"  selection: {sel['requests']} requests "
            f"({sel['index_hits']} index), "
            f"{payload['candidates_per_request']} candidates/request, "
            f"{sel['stale_entries_skipped']} stale skipped, "
            f"{sel['index_events']} index events"
            + (
                f", {payload['index_verifications']} index self-checks OK"
                if args.verify_index
                else ""
            )
        )
        print(render_join_breakdown(result.tracer.spans))
        print()
    if len(arms) == 2:
        ranked = payloads["ranked"]["join_latency"]["p99"]
        uniform = payloads["uniform"]["join_latency"]["p99"]
        verdict = "beats" if ranked < uniform else "does NOT beat"
        print(
            f"ranked {verdict} uniform on p99 join latency "
            f"({ranked * 1000:.0f}ms vs {uniform * 1000:.0f}ms)"
        )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(payloads, fh, indent=2, sort_keys=True)
        print(f"saved metrics to {args.out}")
    return 0


def _cmd_threats(args: argparse.Namespace) -> int:
    # Delegate to the narrated playbook example logic.
    import examples.threat_playbook as playbook  # type: ignore

    playbook.main()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Live-broadcast P2P DRM reproduction (ICDCS 2011)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    week = sub.add_parser("week", help="simulate the measurement week (Figs. 5-6)")
    week.add_argument("--peak", type=int, default=300)
    week.add_argument("--channels", type=int, default=40)
    week.set_defaults(func=_cmd_week)

    calibrate = sub.add_parser("calibrate", help="measure handler service times")
    calibrate.add_argument("--repetitions", type=int, default=30)
    calibrate.set_defaults(func=_cmd_calibrate)

    ablations = sub.add_parser("ablations", help="print ablation tables A1-A5")
    ablations.add_argument("--seed", type=int, default=1)
    ablations.set_defaults(func=_cmd_ablations)

    demo = sub.add_parser("demo", help="compact end-to-end walk-through")
    demo.add_argument("--seed", type=int, default=7)
    demo.add_argument(
        "--traced", action="store_true",
        help="record causal spans and print the trace report afterwards",
    )
    demo.set_defaults(func=_cmd_demo)

    trace = sub.add_parser("trace", help="causal tracing tools")
    trace_sub = trace.add_subparsers(dest="action", required=True)
    trace_report = trace_sub.add_parser(
        "report", help="per-round latency breakdown from a saved span buffer"
    )
    trace_report.add_argument("path", help="JSONL span file written by Tracer.save")
    trace_report.add_argument("--tree", action="store_true", help="also dump a causal tree")
    trace_report.add_argument("--trace-id", type=int, default=None)
    trace_report.set_defaults(func=_cmd_trace)
    trace_storm = trace_sub.add_parser(
        "storm", help="run a traced switch storm (exit 1 if no spans recorded)"
    )
    trace_storm.add_argument("--clients", type=int, default=6)
    trace_storm.add_argument("--seed", type=int, default=17)
    trace_storm.add_argument("--out", default=None, help="save the span buffer as JSONL")
    trace_storm.add_argument("--trace-id", type=int, default=None)
    trace_storm.set_defaults(func=_cmd_trace)

    chaos = sub.add_parser("chaos", help="failure-injection scenario suite")
    chaos_sub = chaos.add_subparsers(dest="action", required=True)
    chaos_run = chaos_sub.add_parser(
        "run", help="run one scenario or 'all' (exit 1 on invariant violation)"
    )
    chaos_run.add_argument(
        "scenario",
        help="scenario name (manager_crash_mid_storm, rolling_restarts, "
             "partition_cm_farm, slow_station_brownout, replica_flap, "
             "shard_killed_mid_resharding) or an adversarial scenario "
             "(polluting_parents, key_withholding_parents, depth_liars, "
             "join_flood, replay_storm) or 'all'",
    )
    chaos_run.add_argument("--clients", type=int, default=8)
    chaos_run.add_argument("--seed", type=int, default=11)
    chaos_run.add_argument("--out", default=None, help="save the run result as JSON")
    chaos_run.set_defaults(func=_cmd_chaos)
    chaos_report = chaos_sub.add_parser(
        "report", help="render a saved chaos run (exit 1 if it failed)"
    )
    chaos_report.add_argument("path", help="JSON file written by chaos run --out")
    chaos_report.set_defaults(func=_cmd_chaos)

    shard = sub.add_parser("shard", help="sharded manager-tier tools")
    shard.add_argument(
        "action", choices=("plan", "status", "rebalance"),
        help="plan: ring placement + expected key movement for --add-um/"
             "--add-cm; status: directory + per-shard load (exit 1 on "
             "invariant violation); rebalance: execute the shard additions "
             "live, then verify",
    )
    shard.add_argument("--seed", type=int, default=7)
    shard.add_argument("--domains", type=int, default=2,
                       help="Authentication Domains (UM farms) to start with")
    shard.add_argument("--partitions", type=int, default=2,
                       help="Channel Listing Partitions (CM farms) to start with")
    shard.add_argument("--users", type=int, default=64)
    shard.add_argument("--channels", type=int, default=8)
    shard.add_argument("--vnodes", type=int, default=None)
    shard.add_argument("--add-um", type=int, default=0,
                       help="user shards to add (plan: simulate; rebalance: execute)")
    shard.add_argument("--add-cm", type=int, default=0,
                       help="channel shards to add (plan: simulate; rebalance: execute)")
    shard.set_defaults(func=_cmd_shard)

    storm = sub.add_parser(
        "storm", help="sharded switch storm across worker processes"
    )
    storm.add_argument("--shards", type=int, default=4)
    storm.add_argument("--workers", type=int, default=1,
                       help="worker processes (1 = sequential, same bytes)")
    storm.add_argument("--clients", type=int, default=4,
                       help="viewers per shard")
    storm.add_argument("--seed", type=int, default=29)
    storm.add_argument("--horizon", type=float, default=150.0,
                       help="virtual seconds to simulate")
    storm.add_argument("--out", default=None,
                       help="save the merged transcript as JSONL")
    storm.add_argument("--check-determinism", action="store_true",
                       help="re-run sequentially and require byte equality "
                            "(exit 1 on mismatch)")
    storm.set_defaults(func=_cmd_storm)

    overlay = sub.add_parser("overlay", help="overlay locality tools")
    overlay.add_argument(
        "action", choices=("storm",),
        help="storm: flash-crowd join storm through the real control "
             "plane, ranked vs uniform peer lists",
    )
    overlay.add_argument("--viewers", type=int, default=600)
    overlay.add_argument("--seed", type=int, default=23)
    overlay.add_argument("--sampler", choices=("ranked", "uniform", "both"),
                         default="both")
    overlay.add_argument("--duration", type=float, default=600.0,
                         help="virtual event duration, seconds")
    overlay.add_argument("--ramp", type=float, default=90.0,
                         help="arrival ramp time constant, seconds")
    overlay.add_argument("--churn", type=float, default=0.15,
                         help="fraction of viewers departing mid-event")
    overlay.add_argument("--partitions", type=int, default=1,
                         help=">1 runs the storm against the sharded manager tier")
    overlay.add_argument("--verify-index", action="store_true",
                         help="run O(n) CandidateIndex.verify_against self-checks "
                              "during the storm (smoke sizes only)")
    overlay.add_argument("--out", default=None,
                         help="save per-arm metrics as JSON")
    overlay.set_defaults(func=_cmd_overlay)

    threats = sub.add_parser("threats", help="run the threat playbook")
    threats.set_defaults(func=_cmd_threats)

    store = sub.add_parser("store", help="durable-store maintenance")
    store.add_argument(
        "action", choices=("inspect", "verify", "compact"),
        help="inspect: report + record histogram; verify: health check "
             "(exit 1 if unhealthy); compact: drop covered records and torn tail",
    )
    store.add_argument("path", help="store directory (one manager's FileBackend root)")
    store.set_defaults(func=_cmd_store)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
