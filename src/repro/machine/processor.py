"""Per-rank state of the simulated distributed-memory machine.

Each :class:`Processor` owns a set of named local memory arenas
(1-D NumPy arrays -- the flattened compressed local arrays of
:class:`repro.distribution.DistributedArray`) plus instrumentation
counters used by tests and benchmarks.

A closed :class:`repro.machine.vm.VirtualMachine` hands the arenas it
can prove unshared to the next machine's processors, which take a
matching one (same dtype and size) before allocating: a program rerun
on a fresh machine then writes memory that is already resident instead
of faulting in pages the allocator returned to the system in between.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field

import numpy as np

__all__ = ["Processor", "MemoryStats"]


@dataclass
class MemoryStats:
    reads: int = 0
    writes: int = 0
    allocations: int = 0
    allocated_cells: int = 0
    scribbles: int = 0  # in-arena corruption events injected by a plan


class Processor:
    """One rank: rank id + named local memories + counters.

    This is the rank state of every backend
    (:data:`repro.machine.iface.RankState`); the multiprocess backend's
    ``RankHandle`` subclasses it to keep arenas in shared memory.
    A processor can *crash* (see :class:`repro.machine.faults.FaultPlan`
    kill points): it goes dead, its memories are wiped, and a later
    :meth:`restart` brings it back -- still empty -- under a new
    incarnation number.  Restoring state is the job of
    :mod:`repro.machine.checkpoint`; the processor itself only models
    the volatile-memory loss.

    ``spares`` are released arenas by ``(dtype, size)``, shared by every
    rank of one machine: :meth:`allocate` takes a matching one and
    fills it instead of allocating.
    """

    def __init__(self, rank: int, spares: dict | None = None) -> None:
        if rank < 0:
            raise ValueError(f"rank must be nonnegative, got {rank}")
        self.rank = rank
        self._memories: dict[str, np.ndarray] = {}
        self._spares = {} if spares is None else spares
        self.stats = MemoryStats()
        self.alive = True
        self.incarnation = 0  # bumped at every restart
        self.crashed_at: int | None = None  # superstep of the latest crash

    # ------------------------------------------------------------------
    # Crash lifecycle
    # ------------------------------------------------------------------

    def crash(self, superstep: int) -> None:
        """Kill the node: volatile memory is lost, nothing executes until
        :meth:`restart`."""
        if not self.alive:
            raise RuntimeError(f"rank {self.rank} is already dead")
        self.alive = False
        self.crashed_at = superstep
        self._wipe()

    def _wipe(self) -> None:
        self._memories.clear()

    def restart(self) -> None:
        """Bring a dead node back up with wiped memory and a fresh
        incarnation number (so peers can tell a reboot from a stall)."""
        if self.alive:
            raise RuntimeError(f"rank {self.rank} is not dead")
        self.alive = True
        self.incarnation += 1

    @property
    def memory_names(self) -> tuple[str, ...]:
        """Allocated arena names, sorted (checkpointing iterates these)."""
        return tuple(sorted(self._memories))

    def arenas(self) -> list[tuple[str, np.ndarray]]:
        """``(name, arena)`` pairs in name order -- the iteration the
        scribble injector and the integrity auditor share, so both walk
        memory in the same deterministic order."""
        return [(name, self._memories[name]) for name in self.memory_names]

    def allocate(self, name: str, size: int, dtype=np.float64, fill=0) -> np.ndarray:
        """Allocate (or reallocate) a named local arena of ``size`` cells."""
        if size < 0:
            raise ValueError(f"size must be nonnegative, got {size}")
        arena = self._memories[name] = self._new_arena(name, size, dtype, fill)
        self.stats.allocations += 1
        self.stats.allocated_cells += size
        return arena

    def _new_arena(self, name: str, size: int, dtype, fill) -> np.ndarray:
        """Backing storage for one arena: a matching spare, filled, or a
        fresh array (a backend with its own memory, e.g. shared-memory
        segments, overrides this, :meth:`free`, and :meth:`_wipe`)."""
        spares = self._spares.get((np.dtype(dtype), size))
        if spares:
            arena = spares.pop()
            arena.fill(fill)
            return arena
        return np.full(size, fill, dtype=dtype)

    def release(self, spares: dict, min_bytes: int) -> None:
        """Drop every arena, adding to ``spares`` each one of at least
        ``min_bytes`` that nothing else references: it owns its data
        (``base is None``) and no view, export or caller holds it."""
        memories = self._memories
        while memories:
            _, arena = memories.popitem()
            # The only references left are ``arena`` and the argument.
            if (
                arena.nbytes >= min_bytes
                and arena.base is None
                and sys.getrefcount(arena) == 2
            ):
                spares.setdefault((arena.dtype, arena.size), []).append(arena)

    def memory(self, name: str) -> np.ndarray:
        try:
            return self._memories[name]
        except KeyError:
            raise KeyError(
                f"rank {self.rank} has no local memory named {name!r}; "
                f"allocated: {sorted(self._memories)}"
            ) from None

    def has_memory(self, name: str) -> bool:
        return name in self._memories

    def free(self, name: str) -> None:
        if name not in self._memories:
            raise KeyError(f"rank {self.rank} has no local memory named {name!r}")
        del self._memories[name]

    # Counted accessors -- the node-code templates use raw array access
    # in their hot loops for honest timing; these counted versions are
    # for tests and traces.

    def load(self, name: str, addr: int) -> float:
        self.stats.reads += 1
        return self.memory(name)[addr]

    def store(self, name: str, addr: int, value) -> None:
        self.stats.writes += 1
        self.memory(name)[addr] = value

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(rank={self.rank}, memories={sorted(self._memories)})"
