"""The schedule generator: pure, seed-permuted, class-safe."""

from collections import Counter

import pytest

from benchmarks.perf import config
from benchmarks.perf.schedule import (
    build_schedule,
    class_boundaries,
    percentile,
)

WORKLOADS = [workload.name for workload in config.WORKLOADS]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_schedule_is_a_pure_function_of_workload_and_seed(workload):
    assert build_schedule(workload, 7) == build_schedule(workload, 7)
    assert build_schedule(workload, 7) != build_schedule(workload, 8)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seeds_permute_ops_but_keep_the_work(workload):
    def work(seed):
        return Counter((op.kind, op.cls) for op in build_schedule(workload, seed))

    assert work(1) == work(2) == work(12345)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_no_reported_percentile_sits_near_a_class_boundary(workload, seed):
    boundaries = class_boundaries(build_schedule(workload, seed))
    for q in config.REPORTED_PERCENTILES:
        for boundary in boundaries:
            assert abs(q - boundary) >= config.CLASS_MARGIN, (
                f"p{q:g} of {workload} is {abs(q - boundary):.1f} points from "
                f"the class boundary at {boundary:.1f}%"
            )


@pytest.mark.parametrize("workload", WORKLOADS)
def test_p90_has_enough_samples_beyond_it(workload):
    reads = sum(op.kind == "publish" for op in build_schedule(workload, 1))
    assert reads - int(0.9 * reads) >= 14


def test_cold_publish_cycles_the_whole_catalogue_once():
    ops = build_schedule("cold-publish", 1)
    assert len(ops) == config.CATALOGUE_SIZE
    assert len({op.view for op in ops}) == config.CATALOGUE_SIZE
    assert Counter(op.cls for op in ops) == {
        "compute:figure4": 48, "compute:figure17": 48, "compute:qtree": 48,
    }


@pytest.mark.parametrize("workload", ["write-mix", "fleet-mix"])
def test_write_blocks_recompute_two_reads_in_seven(workload):
    ops = build_schedule(workload, 5)
    assert len(ops) == config.WRITE_BLOCKS * (1 + config.READS_PER_BLOCK)
    block = 1 + config.READS_PER_BLOCK
    for start in range(0, len(ops), block):
        assert ops[start].kind == "write"
        reads = ops[start + 1 : start + block]
        assert all(op.kind == "publish" for op in reads)
        assert sum(op.cls.startswith("compute:") for op in reads) == 2
        # Reads alternate, so a fleet's member rotation sends each view
        # to one member per block.
        assert all(a.view != b.view for a, b in zip(reads, reads[1:]))


def test_fleet_mix_replays_the_write_mix_traffic():
    strip = lambda ops: [(op.kind, op.view, op.cls) for op in ops]  # noqa: E731
    assert Counter(strip(build_schedule("fleet-mix", 3))) == Counter(
        strip(build_schedule("write-mix", 3))
    )


def test_percentile_is_nearest_rank():
    values = [float(i) for i in range(1, 101)]
    assert percentile(values, 50) == 50.0
    assert percentile(values, 90) == 90.0
    assert percentile(values, 99) == 99.0
    assert percentile([3.0], 90) == 3.0
    with pytest.raises(ValueError):
        percentile([], 50)
