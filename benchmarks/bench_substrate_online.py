"""Substrate bench: online batched-arrival simulation cost vs batch size.

Smaller batches approximate instant matching but run more assignment
rounds; this bench measures the trade-off on one BK-like day with the IA
assigner and a fitted influence model.
"""

import pytest

from repro import DITAPipeline, IAAssigner, PipelineConfig
from repro.framework import OnlineSimulator, day_arrivals


@pytest.fixture(scope="module")
def online_world(bk_runner):
    day = bk_runner.days[0]
    instance = bk_runner.build_instance(day)
    config = PipelineConfig(
        num_topics=15, propagation_mode="fixed", num_rrr_sets=10_000, seed=3
    )
    influence = DITAPipeline(config).fit(instance).influence_model()
    arrivals = day_arrivals(bk_runner.dataset, day)
    return instance, arrivals, influence


@pytest.mark.parametrize("batch_hours", [0.5, 1.0, 4.0])
def test_online_batch_size(benchmark, online_world, batch_hours):
    instance, arrivals, influence = online_world
    simulator = OnlineSimulator(IAAssigner(), influence, batch_hours=batch_hours)
    result = benchmark.pedantic(
        lambda: simulator.run(instance, arrivals), rounds=1, iterations=1
    )
    print(
        f"\nbatch={batch_hours:g} h: {len(result.steps)} rounds, "
        f"{result.total_assigned} assigned, {result.total_expired} expired"
    )
    assert result.total_assigned > 0


def test_online_vs_single_round(benchmark, online_world):
    """The day-start single round sees every task at once; the online loop
    must stay within the same order of assignments."""
    from repro.assignment import PreparedInstance

    instance, arrivals, influence = online_world
    prepared = PreparedInstance(instance, influence)
    single = IAAssigner().assign(prepared)

    simulator = OnlineSimulator(IAAssigner(), influence, batch_hours=1.0)
    result = benchmark.pedantic(
        lambda: simulator.run(instance, arrivals), rounds=1, iterations=1
    )
    print(
        f"\nsingle-round: {len(single)} assigned; "
        f"online hourly: {result.total_assigned} assigned"
    )
    assert result.total_assigned >= len(single) * 0.3
