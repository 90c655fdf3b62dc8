"""repro: lattice-based memory access sequences for HPF cyclic(k) arrays.

A full reproduction of *Kennedy, Nedeljkovic & Sethi, "A Linear-Time
Algorithm for Computing the Memory Access Sequence in Data-Parallel
Programs"* (PPoPP 1995), packaged as the runtime library the paper's
conclusion calls for, plus every substrate its evaluation depends on:

* :mod:`repro.core` -- the O(k + min(log s, log p)) lattice algorithm,
  the offset-indexed tables, the table-free R/L generator, and the
  baselines it is compared against (Chatterjee et al. sorting,
  Hiranandani et al. special case, brute-force oracle);
* :mod:`repro.distribution` -- HPF data mapping: triplet sections,
  cyclic(k) layout algebra, BLOCK/CYCLIC/CYCLIC(k) formats, affine
  alignments with the two-application localization scheme, and
  multidimensional distributed-array descriptors;
* :mod:`repro.machine` -- a deterministic SPMD virtual machine standing
  in for the paper's iPSC/860 (per-rank memories, message passing,
  collectives, instrumentation);
* :mod:`repro.runtime` -- access plans, the four Figure-8 node-code
  shapes (plus a vectorized one), communication-set generation, and
  statement execution;
* :mod:`repro.lang` -- a mini-HPF front end (ALIGN/DISTRIBUTE
  directives, array assignments) compiled onto the runtime;
* :mod:`repro.viz` -- ASCII reproductions of the paper's figures;
* :mod:`repro.bench` -- harnesses regenerating every table and figure
  of the evaluation (see EXPERIMENTS.md).

Quickstart::

    from repro import compute_access_table
    table = compute_access_table(p=4, k=8, l=4, s=9, m=1)
    table.gaps          # (3, 12, 15, 12, 3, 12, 3, 12) -- the paper's AM
    table.start         # 13

"""

from .core import (
    AccessTable,
    LatticePoint,
    OffsetTables,
    RLBasis,
    RLCursor,
    SectionLattice,
    compute_access_table,
    compute_offset_tables,
    compute_rl_basis,
    iter_global_indices,
    iter_local_addresses,
    last_location,
    local_allocation_size,
    local_count,
    owner_histogram,
    section_length,
    start_location,
)
from .distribution import (
    Alignment,
    AxisMap,
    Block,
    Collapsed,
    Cyclic,
    CyclicK,
    CyclicLayout,
    DistributedArray,
    ProcessorGrid,
    RegularSection,
    Replicated,
    Template,
    localize_section,
)
from .lang import compile_source
from .machine import VirtualMachine
from .runtime import (
    cache_stats,
    cached_comm_schedule,
    clear_plan_caches,
    collect,
    compute_comm_schedule,
    distribute,
    execute_copy,
    execute_fill,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # core
    "AccessTable",
    "compute_access_table",
    "start_location",
    "OffsetTables",
    "compute_offset_tables",
    "LatticePoint",
    "RLBasis",
    "SectionLattice",
    "compute_rl_basis",
    "RLCursor",
    "iter_global_indices",
    "iter_local_addresses",
    "local_count",
    "last_location",
    "owner_histogram",
    "local_allocation_size",
    "section_length",
    # distribution
    "RegularSection",
    "CyclicLayout",
    "Alignment",
    "AxisMap",
    "DistributedArray",
    "ProcessorGrid",
    "Template",
    "Block",
    "Cyclic",
    "CyclicK",
    "Collapsed",
    "Replicated",
    "localize_section",
    # machine / runtime / lang
    "VirtualMachine",
    "compute_comm_schedule",
    "cached_comm_schedule",
    "cache_stats",
    "clear_plan_caches",
    "distribute",
    "collect",
    "execute_fill",
    "execute_copy",
    "compile_source",
]
