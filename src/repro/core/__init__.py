"""The paper's primary contribution: lattice-based access sequences.

Public surface of the core algorithm family:

* :func:`compute_access_table` -- the linear-time algorithm (Figure 5);
* :func:`compute_offset_tables` -- offset-indexed variant for node code 8(d);
* :func:`compute_rl_basis` / :class:`SectionLattice` -- the integer-lattice
  theory of Sections 3-4;
* :mod:`repro.core.baselines` -- Chatterjee sorting, Hiranandani special
  case, and the brute-force oracle;
* :class:`RLCursor` and the ``iter_*`` generators -- table-free address
  generation (Section 6.2);
* counting / bounds helpers for the upper-bound handling the table
  itself factors out.

Three modules run on no end-to-end workload; each is kept for a bench
or paper-table user:

* :mod:`.fsm` -- ``benchmarks/bench_fsm.py`` and its "FSM amortization"
  section in EXPERIMENTS.md;
* :mod:`.offsets` -- Table 2's shape (d) in :mod:`repro.bench.nodecode`;
* :mod:`.generator` -- ablation A2 in :mod:`repro.bench.ablations` and
  ``examples/quickstart.py``.
"""

from .access import AccessTable, StartInfo, compute_access_table, start_location
from .counting import (
    last_location,
    local_allocation_size,
    local_count,
    owner_histogram,
    section_length,
)
from .euclid import ExtendedGcd, extended_gcd, gcd, lcm, mod_inverse
from .fsm import AccessFSM, Transition
from .kernels import expand_table
from .multidim import compose_flat_addresses, odometer_addresses, row_major_strides
from .generator import RLCursor, iter_global_indices, iter_local_addresses
from .lattice import (
    LatticePoint,
    RLBasis,
    SectionLattice,
    compute_rl_basis,
    is_basis,
    is_primitive_vector,
)
from .offsets import OffsetTables, compute_offset_tables

__all__ = [
    "AccessTable",
    "StartInfo",
    "compute_access_table",
    "start_location",
    "OffsetTables",
    "compute_offset_tables",
    "LatticePoint",
    "RLBasis",
    "SectionLattice",
    "compute_rl_basis",
    "is_basis",
    "is_primitive_vector",
    "RLCursor",
    "iter_global_indices",
    "iter_local_addresses",
    "AccessFSM",
    "Transition",
    "compose_flat_addresses",
    "odometer_addresses",
    "row_major_strides",
    "expand_table",
    "ExtendedGcd",
    "extended_gcd",
    "gcd",
    "lcm",
    "mod_inverse",
    "local_count",
    "last_location",
    "owner_histogram",
    "local_allocation_size",
    "section_length",
]
