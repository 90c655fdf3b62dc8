"""Tests for flat multidimensional local addressing."""

import pytest

from repro.distribution.array import AxisMap, DistributedArray
from repro.distribution.dist import Collapsed, Cyclic, CyclicK, ProcessorGrid
from repro.distribution.section import RegularSection
from repro.runtime.address import flat_local_addresses


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
            got = flat_local_addresses(arr, secs, rank).tolist()
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
            assert flat_local_addresses(arr, secs, rank).tolist() == want

    def test_collapsed_out_of_bounds(self):
        grid = ProcessorGrid("P", (2,))
        arr = DistributedArray(
            "M", (6, 10), grid,
            (AxisMap(Cyclic(), grid_axis=0), AxisMap(Collapsed())),
        )
        with pytest.raises(IndexError, match="outside"):
            flat_local_addresses(
                arr, (RegularSection(0, 5, 1), RegularSection(0, 10, 1)), 0
            )

    def test_empty_section(self):
        grid = ProcessorGrid("P", (2,))
        arr = DistributedArray("A", (10,), grid, (AxisMap(CyclicK(2), grid_axis=0),))
        got = flat_local_addresses(arr, (RegularSection(5, 4, 1),), 0)
        assert got.size == 0

    def test_wrong_section_count(self):
        grid = ProcessorGrid("P", (2,))
        arr = DistributedArray("A", (10,), grid, (AxisMap(CyclicK(2), grid_axis=0),))
        with pytest.raises(ValueError, match="one section per dimension"):
            flat_local_addresses(arr, (), 0)
