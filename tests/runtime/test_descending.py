"""Tests for flat multidimensional local addressing: the per-dimension
plans every fill stores through, composed into one rank's flat
addresses (:func:`rank_addresses` over :func:`cached_array_plan`)."""

import pytest

from repro.distribution.array import AxisMap, DistributedArray
from repro.distribution.dist import Collapsed, Cyclic, CyclicK, ProcessorGrid
from repro.distribution.section import RegularSection
from repro.machine.vm import VirtualMachine
from repro.runtime.address import rank_addresses
from repro.runtime.exec import execute_fill
from repro.runtime.plancache import cached_array_plan


def fill_addresses(arr, secs, rank):
    """``rank``'s flat local addresses of ``arr(secs)``, as a fill
    computes them."""
    plans = [cached_array_plan(arr, d, sec) for d, sec in enumerate(secs)]
    return rank_addresses(arr, plans, rank)


class TestFlatLocalAddresses:
    def test_matches_enumeration_2d(self):
        grid = ProcessorGrid("P", (2, 2))
        arr = DistributedArray(
            "M", (10, 12), grid,
            (AxisMap(CyclicK(3), grid_axis=0), AxisMap(CyclicK(2), grid_axis=1)),
        )
        secs = (RegularSection(1, 9, 2), RegularSection(0, 11, 3))
        for rank in range(4):
            want = [addr for _, addr in arr.local_section_elements(secs, rank)]
            got = fill_addresses(arr, secs, rank).tolist()
            assert got == want

    def test_collapsed_dim(self):
        grid = ProcessorGrid("P", (2,))
        arr = DistributedArray(
            "M", (6, 10), grid,
            (AxisMap(Cyclic(), grid_axis=0), AxisMap(Collapsed())),
        )
        secs = (RegularSection(0, 5, 2), RegularSection(1, 9, 4))
        for rank in range(2):
            want = [addr for _, addr in arr.local_section_elements(secs, rank)]
            assert fill_addresses(arr, secs, rank).tolist() == want

    def test_collapsed_out_of_bounds(self):
        grid = ProcessorGrid("P", (2,))
        arr = DistributedArray(
            "M", (6, 10), grid,
            (AxisMap(Cyclic(), grid_axis=0), AxisMap(Collapsed())),
        )
        with pytest.raises(IndexError, match="outside"):
            fill_addresses(
                arr, (RegularSection(0, 5, 1), RegularSection(0, 10, 1)), 0
            )

    def test_empty_section(self):
        grid = ProcessorGrid("P", (2,))
        arr = DistributedArray("A", (10,), grid, (AxisMap(CyclicK(2), grid_axis=0),))
        got = fill_addresses(arr, (RegularSection(5, 4, 1),), 0)
        assert got.size == 0

    def test_wrong_section_count(self):
        grid = ProcessorGrid("P", (2,))
        arr = DistributedArray("A", (10,), grid, (AxisMap(CyclicK(2), grid_axis=0),))
        with pytest.raises(ValueError, match="need 1 sections for A, got 0"):
            execute_fill(VirtualMachine(2), arr, (), 1.0)
