"""Robustness sweep: the Fig. 5 correlations across seeds.

The paper reports point estimates from one production week.  Our
simulated weeks are cheap, so this bench replays the week under
several seeds and checks the *distributional* version of the claim:
the server rounds' correlations stay centred on zero across seeds
while JOIN's stays positive -- i.e. the result is a property of the
architecture, not of one lucky seed.
"""

from dataclasses import replace

from repro.experiments.common import WeeklongConfig
from repro.experiments.weeklong import WeeklongRunner
from repro.metrics.reporting import format_table

SEEDS = (20080623, 7, 99)


def test_bench_seed_sweep_correlations(benchmark):
    def sweep():
        rows = []
        for seed in SEEDS:
            config = replace(
                WeeklongConfig(peak_concurrent=120, n_channels=20, horizon=4 * 86400.0),
                seed=seed,
            )
            result = WeeklongRunner(config).run()
            rows.append((seed, {
                name: result.correlation(name, min_samples=5)
                for name in ("LOGIN1", "LOGIN2", "SWITCH1", "SWITCH2", "JOIN")
            }))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)

    server_rs = [
        corr[name]
        for _, corr in rows
        for name in ("LOGIN1", "LOGIN2", "SWITCH1", "SWITCH2")
    ]
    join_rs = [corr["JOIN"] for _, corr in rows]
    # Server rounds: centred on zero (mean within noise), every sample weak.
    assert abs(sum(server_rs) / len(server_rs)) < 0.12
    assert all(abs(r) < 0.35 for r in server_rs)
    # JOIN: positive under every seed, still weak.
    assert all(0.0 < r < 0.5 for r in join_rs)
    assert sum(join_rs) / len(join_rs) > 0.05

    table = [
        (seed, *(f"{corr[n]:+.3f}" for n in ("LOGIN1", "LOGIN2", "SWITCH1", "SWITCH2", "JOIN")))
        for seed, corr in rows
    ]
    print("\nPearson r vs load, by seed")
    print(format_table(["seed", "LOGIN1", "LOGIN2", "SWITCH1", "SWITCH2", "JOIN"], table))
