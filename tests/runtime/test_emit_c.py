"""Tests for the Figure 8 C code emitter (:mod:`repro.bench.nodecode`).

Structure checks always run; if a C compiler is available on the host,
the emitted harness is compiled and executed and its address stream is
compared against the Python shapes (full closed-loop validation).
"""

import shutil
import subprocess
import sys

import numpy as np
import pytest

from repro.bench.nodecode import emit_harness, emit_node_code
from repro.core.baselines.naive import enumerate_local_elements
from repro.runtime.address import make_plan

PAPER = dict(p=4, k=8, l=4, u=319, s=9, m=1)


def paper_plan():
    return make_plan(**PAPER)


class TestStructure:
    def test_unknown_shape(self):
        with pytest.raises(ValueError, match="unknown shape"):
            emit_node_code(paper_plan(), "z")

    def test_shape_a_uses_mod(self):
        code = emit_node_code(paper_plan(), "a")
        assert "i = (i + 1) % LENGTH;" in code
        assert "#define STARTMEM 5" in code
        assert "deltaM[1] = " not in code
        assert "{3, 12, 15, 12, 3, 12, 3, 12}" in code

    def test_shape_b_resets(self):
        code = emit_node_code(paper_plan(), "b")
        assert "if (i == LENGTH) i = 0;" in code
        assert "%" not in code.split("Figure 8(b)")[1]

    def test_shape_c_goto(self):
        code = emit_node_code(paper_plan(), "c")
        assert "goto done;" in code
        assert "while (1)" in code

    def test_shape_d_two_tables(self):
        code = emit_node_code(paper_plan(), "d")
        assert "NextOffset" in code
        assert "#define STARTOFFSET 5" in code
        assert "i = NextOffset[i];" in code
        # The paper's offset-indexed tables for the worked example.
        assert "{12, 12, 12, 12, 15, 3, 3, 3}" in code
        assert "{4, 5, 6, 7, 3, 0, 1, 2}" in code

    def test_empty_plan(self):
        plan = make_plan(2, 1, 0, 100, 4, 1)
        code = emit_node_code(plan, "b")
        assert "owns no section elements" in code

    def test_shape_d_needs_offsets(self):
        from repro.distribution.align import Alignment
        from repro.distribution.array import AxisMap, DistributedArray
        from repro.distribution.dist import CyclicK, ProcessorGrid
        from repro.distribution.section import RegularSection
        from repro.runtime.address import make_array_plan

        grid = ProcessorGrid("P", (4,))
        arr = DistributedArray(
            "A", (100,), grid,
            (AxisMap(CyclicK(8), Alignment(2, 1), grid_axis=0,
                     template_extent=256),),
        )
        plan = make_array_plan(arr, 0, RegularSection(0, 99, 3), 0)
        with pytest.raises(ValueError, match="offset-indexed"):
            emit_node_code(plan, "d")

    def test_harness_structure(self):
        text = emit_harness(paper_plan(), "b", memory_size=128)
        assert "#include <stdio.h>" in text
        assert "int main(void)" in text
        assert "calloc(128" in text


needs_cc = pytest.mark.skipif(
    shutil.which("cc") is None and shutil.which("gcc") is None,
    reason="no C compiler on host",
)


@needs_cc
class TestCompiledAddressStream:
    @pytest.mark.parametrize("shape", ["a", "b", "c", "d"])
    def test_c_matches_python(self, shape, tmp_path):
        plan = paper_plan()
        want = [a for _, a in enumerate_local_elements(**PAPER)]
        size = max(want) + 1
        source = tmp_path / "node.c"
        binary = tmp_path / "node"
        source.write_text(emit_harness(plan, shape, memory_size=size))
        cc = shutil.which("cc") or shutil.which("gcc")
        subprocess.run([cc, "-O2", "-o", str(binary), str(source)], check=True)
        out = subprocess.run([str(binary)], capture_output=True, text=True,
                             check=True)
        got = [int(line) for line in out.stdout.split()]
        assert got == sorted(want)
