"""Tests for the analytic communication cost model."""

import pytest

from repro.machine.costmodel import CostModel, estimate_superstep
from repro.machine.topology import CrossbarTopology, HypercubeTopology
from repro.runtime.commsets import Transfer


def make_transfer(src, dst, n):
    return Transfer(src, dst, tuple(range(n)), tuple(range(n)))


class TestCostModel:
    def test_message_formula(self):
        model = CostModel(alpha_us=10.0, beta_us_per_byte=0.5,
                          gamma_us_per_hop=2.0, word_bytes=8)
        assert model.message_us(4, 1) == 10.0 + 0.5 * 32
        assert model.message_us(4, 3) == 10.0 + 0.5 * 32 + 2.0 * 2

    def test_validation(self):
        model = CostModel()
        with pytest.raises(ValueError, match="nonnegative"):
            model.message_us(-1, 1)
        with pytest.raises(ValueError, match="hop"):
            model.message_us(4, 0)


class TestEstimate:
    def test_locals_are_free(self):
        est = estimate_superstep(
            [make_transfer(0, 0, 100)], 2, CrossbarTopology(2)
        )
        assert est.time_us == 0.0
        assert est.messages == ()

    def test_bottleneck(self):
        model = CostModel(alpha_us=1.0, beta_us_per_byte=0.0,
                          gamma_us_per_hop=0.0)
        # Rank 0 sends to everyone: it is the bottleneck.
        transfers = [make_transfer(0, r, 1) for r in range(1, 4)]
        est = estimate_superstep(transfers, 4, CrossbarTopology(4), model)
        assert est.bottleneck_rank == 0
        assert est.per_rank_us[0] == 3.0
        assert est.per_rank_us[1] == 1.0
        # makespan = bottleneck load + slowest single transit.
        assert est.time_us == 3.0 + 1.0

    def test_hypercube_distance_matters(self):
        model = CostModel(alpha_us=0.0, beta_us_per_byte=0.0,
                          gamma_us_per_hop=5.0)
        cube = HypercubeTopology(3)
        far = estimate_superstep([make_transfer(0, 7, 1)], 8, cube, model)
        near = estimate_superstep([make_transfer(0, 1, 1)], 8, cube, model)
        assert far.messages[0].hops == 3
        assert far.time_us > near.time_us

    def test_validation(self):
        with pytest.raises(ValueError, match="at least one rank"):
            estimate_superstep([], 0, CrossbarTopology(1))

    def test_on_real_schedule(self):
        from repro.distribution import (AxisMap, Block, CyclicK,
                                        DistributedArray, ProcessorGrid)
        from repro.runtime.redistribute import plan_redistribution

        grid = ProcessorGrid("P", (8,))
        src = DistributedArray("S", (256,), grid, (AxisMap(CyclicK(1), grid_axis=0),))
        dst = DistributedArray("D", (256,), grid, (AxisMap(Block(), grid_axis=0),))
        schedule, stats = plan_redistribution(dst, src)
        est = estimate_superstep(schedule.transfers, 8, HypercubeTopology(3))
        assert len(est.messages) == stats.messages
        assert sum(m.elements for m in est.messages) == stats.remote_elements
        assert est.time_us > 0
