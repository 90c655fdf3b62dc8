"""Per-layer attribution for the traced pass of the end-to-end benchmark.

The traced pass installs one enabled ``repro.obs.Observability`` as the
ambient handle and as every machine's ``obs=``, so the spans the program
already emits (``superstep``, ``node``, ``barrier``, ``plan_compute``,
``distribute``, ``collect``, ``execute_*``, ``exchange``,
``protocol_round``, ``checkpoint``, ``audit``, ...) and its counters
(``net.*``, ``plancache.*``, ``native.*``, ``resilient.*``,
``faults.*``, ``vm.supersteps``) land in one place.  Layers with no span
of their own are timed from here only: :func:`instrumented` swaps the
access-table, localization, schedule and plan-cache entry points for
span-recording wrappers at every ``repro.*`` module attribute that holds
the original, and puts the originals back afterwards.  Nothing under
``src/`` changes.

A layer's self time is its spans' duration minus the part covered by
child spans (:func:`self_times`).
"""

from __future__ import annotations

import functools
import importlib
import math
import statistics
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Callable, Iterable, Iterator

#: ``(module, attribute, span name)`` of every wrapped entry point.
WRAPPED = (
    ("repro.core.access", "compute_access_table", "core.access_table"),
    ("repro.distribution.localize", "localized_arrays", "distribution.localize"),
    ("repro.runtime.commsets", "compute_comm_schedule", "commsets.schedule"),
    ("repro.runtime.commsets2d", "compute_comm_schedule_2d", "commsets.schedule"),
    ("repro.runtime.plancache", "cached_localized_arrays", "plancache.lookup"),
    ("repro.runtime.plancache", "cached_array_plan", "plancache.lookup"),
    ("repro.runtime.plancache", "cached_comm_schedule", "plancache.lookup"),
    ("repro.runtime.plancache", "cached_comm_schedule_2d", "plancache.lookup"),
)

PLAN_CACHES = ("localized_arrays", "array_plans", "comm_schedules", "comm_schedules_2d")

#: Spans of the resilient exchange's own phases (their ``superstep``
#: children belong to the machine layer).
RESILIENT_SPANS = (
    "exchange", "pack_phase", "protocol_round", "cleanup_round",
    "verify_destinations",
)


def self_times(records: Iterable) -> Iterator[tuple[object, int]]:
    """Yield ``(record, self_ns)`` for every timed span in ``records``.

    ``records`` must be in completion order (a ``TraceBuffer``'s order)
    and hold whole trees, i.e. be drained while no span was open: a
    parent then completes after all of its children, and the children of
    a span at depth ``d`` are exactly the depth ``d + 1`` spans that
    completed since the previous depth ``d`` span did.
    """
    covered: defaultdict[int, int] = defaultdict(int)
    for record in records:
        if record.dur_ns is None:
            continue
        depth = record.depth
        yield record, record.dur_ns - covered.pop(depth + 1, 0)
        covered[depth] += record.dur_ns


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty list."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


class NullTracer:
    """The untraced pass's stand-in: every hook is free."""

    paused_s = 0.0

    def drain(self) -> None:
        pass

    def note(self, name: str, n: float) -> None:
        pass

    def start_round(self) -> None:
        pass

    def end_round(self, wall_s: float) -> None:
        pass

    @contextmanager
    def instrumented(self) -> Iterator[None]:
        yield


class Tracer:
    """Aggregates one traced pass round by round.

    The trace ring is drained into per-name totals at points where no
    span is open (:meth:`drain`), so its size never bounds the run;
    spans the ring had to drop are counted in :attr:`dropped`.  Time
    spent draining is kept in :attr:`paused_s` so callers can take it
    out of the wall time they measure.
    """

    def __init__(self, obs) -> None:
        self.obs = obs
        self.paused_s = 0.0
        self.dropped = 0
        self.access_tuples: set[tuple[int, int, int, int, int]] = set()
        self.stmt_us: list[float] = []
        self.rounds: list[dict[str, float]] = []
        self.start_round()

    # -- collection ------------------------------------------------------

    def start_round(self) -> None:
        self.self_ns: Counter[str] = Counter()
        self.total_ns: Counter[str] = Counter()
        self.calls: Counter[str] = Counter()
        self.notes: Counter[str] = Counter()
        self.top_ns = 0
        self.obs.metrics.clear()

    def note(self, name: str, n: float) -> None:
        """Add ``n`` to a benchmark-side count of this round."""
        self.notes[name] += n

    def drain(self) -> None:
        began = time.perf_counter()
        if self.obs.depth:
            raise RuntimeError("trace drained while a span is open")
        trace = self.obs.trace
        records = trace.records()
        self.dropped += trace.dropped
        trace.clear()
        for record, own_ns in self_times(records):
            name = record.name
            self.self_ns[name] += own_ns
            self.total_ns[name] += record.dur_ns
            self.calls[name] += 1
            if record.depth == 0:
                self.top_ns += record.dur_ns
            if name == "stmt":
                self.stmt_us.append(record.dur_ns / 1e3)
            elif name == "exchange":
                self.notes["resilient.payload_bytes"] += record.attrs_dict()["payload_bytes"]
        self.paused_s += time.perf_counter() - began

    def end_round(self, wall_s: float) -> None:
        """Close the round whose (drain-free) wall time was ``wall_s``."""
        self.drain()
        self.rounds.append(self._round_metrics(wall_s))

    # -- wrappers --------------------------------------------------------

    def _wrap(self, span: str, fn: Callable) -> Callable:
        obs = self.obs
        if span == "core.access_table":
            tuples = self.access_tuples

            @functools.wraps(fn)
            def wrapper(p, k, l, s, m):
                tuples.add((p, k, l, s, m))
                with obs.span(span):
                    return fn(p, k, l, s, m)
        elif span == "commsets.schedule":
            note = self.note

            @functools.wraps(fn)
            def wrapper(*args, **kw):
                with obs.span(span):
                    schedule = fn(*args, **kw)
                note("commsets.transfers", len(schedule.transfers))
                note("commsets.remote_elements", schedule.communicated_elements)
                note("commsets.total_elements", schedule.total_elements)
                return schedule
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kw):
                with obs.span(span):
                    return fn(*args, **kw)
        return wrapper

    @contextmanager
    def instrumented(self) -> Iterator[None]:
        """Swap every :data:`WRAPPED` entry point for its wrapper at each
        ``repro.*`` module attribute holding the original; restore them
        all on exit (including any copy a module imported meanwhile)."""
        swaps: dict[str, list[tuple[object, object]]] = defaultdict(list)
        for module_name, attr, span in WRAPPED:
            original = getattr(importlib.import_module(module_name), attr)
            swaps[attr].append((original, self._wrap(span, original)))
        try:
            _replace(swaps, 0, 1)
            yield
        finally:
            _replace(swaps, 1, 0)

    # -- metrics ---------------------------------------------------------

    def _round_metrics(self, wall_s: float) -> dict[str, float]:
        own = self.self_ns
        count = self.obs.metrics.value

        def self_s(*names: str) -> float:
            return sum(own[name] for name in names) / 1e9

        def share(*names: str) -> float:
            return self_s(*names) / wall_s

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        hits = sum(count(f"plancache.{c}.hits") for c in PLAN_CACHES)
        misses = sum(count(f"plancache.{c}.misses") for c in PLAN_CACHES)
        native = count("native.dispatch_native")
        numpy = count("native.dispatch_numpy")
        supersteps = count("vm.supersteps")
        sent = count("net.bytes_sent")
        faults = sum(
            value for name, value in self.obs.metrics.snapshot()["counters"].items()
            if name.startswith("faults.")
        )
        gaps_s = wall_s - self.top_ns / 1e9
        metrics = {
            "lang.parse_s": self_s("lang.parse"),
            "lang.compile_self_s": self_s("lang.compile"),
            "lang.statements": self.notes["lang.statements"],
            "plancache.lookup_self_s": self_s("plancache.lookup"),
            "plancache.compute_s": self.total_ns["plan_compute"] / 1e9,
            "plancache.hit_ratio": ratio(hits, hits + misses),
            "plancache.misses": misses,
            "plancache.evictions": sum(
                count(f"plancache.{c}.evictions") for c in PLAN_CACHES
            ),
            "core.access_table_s": self_s("core.access_table"),
            "core.access_tables": self.calls["core.access_table"],
            "distribution.localize_s": self_s("distribution.localize"),
            "distribution.localize_calls": self.calls["distribution.localize"],
            "commsets.schedule_s": self_s("commsets.schedule"),
            "commsets.transfers": self.notes["commsets.transfers"],
            "commsets.remote_fraction": ratio(
                self.notes["commsets.remote_elements"],
                self.notes["commsets.total_elements"],
            ),
            "exec.fill_share": share("execute_fill"),
            "exec.copy_share": share("execute_copy", "execute_copy_2d"),
            "exec.combine_share": share("execute_combine"),
            "exec.distribute_s": self_s("distribute"),
            "exec.collect_s": self_s("collect"),
            "native.dispatch_native": native,
            "native.dispatch_numpy": numpy,
            "native.share": ratio(native, native + numpy),
            "machine.boot_s": self_s("machine.boot"),
            "machine.supersteps": supersteps,
            "machine.superstep_self_s": self_s("superstep"),
            "machine.node_self_s": self_s("node"),
            "machine.barrier_s": self_s("barrier"),
            "net.messages": count("net.messages_sent"),
            "net.bytes": sent,
            "net.bytes_per_superstep": ratio(sent, supersteps),
            "resilient.exchange_share": share(*RESILIENT_SPANS),
            "resilient.protocol_rounds": self.calls["protocol_round"],
            "resilient.retries": count("resilient.retries"),
            "resilient.retransmitted_bytes": self.notes["resilient.retransmitted_bytes"],
            "resilient.goodput": ratio(self.notes["resilient.payload_bytes"], sent),
            "resilient.checkpoint_share": share("checkpoint"),
            "resilient.checkpoint_bytes": count("resilient.checkpoint_bytes"),
            "resilient.audit_share": share("audit"),
            "resilient.chunks_repaired": count("resilient.chunks_repaired"),
            "resilient.detected_corruptions": count("resilient.detected_corruptions"),
            "faults.injected": faults,
            "stmt.count": self.calls["stmt"],
            "stmt.self_s": self_s("stmt"),
            "unattributed_share": (self_s("stmt") + gaps_s) / wall_s,
        }
        for cache in PLAN_CACHES:
            metrics[f"plancache.{cache}.misses"] = count(f"plancache.{cache}.misses")
        return metrics

    def summary(self) -> dict[str, float]:
        """Per-round medians, pooled statement tails, and run totals."""
        out = {
            name: statistics.median(r[name] for r in self.rounds)
            for name in self.rounds[0]
        }
        out["stmt.p90_us"] = percentile(self.stmt_us, 90)
        out["stmt.p99_us"] = percentile(self.stmt_us, 99)
        out["obs.dropped_spans"] = self.dropped
        out.update(paper_trajectory(self.access_tuples))
        return out


def _replace(swaps: dict, old: int, new: int) -> None:
    """Set every ``repro.*`` module attribute holding ``pair[old]`` of a
    swap pair to ``pair[new]``."""
    for module in list(sys.modules.values()):
        name = getattr(module, "__name__", "")
        if name != "repro" and not name.startswith("repro."):
            continue
        namespace = vars(module)
        for attr, pairs in swaps.items():
            for pair in pairs:
                if namespace.get(attr) is pair[old]:
                    namespace[attr] = pair[new]


def _best_us(fn: Callable, args: tuple, reps: int) -> float:
    best = math.inf
    for _ in range(reps):
        began = time.perf_counter_ns()
        fn(*args)
        best = min(best, time.perf_counter_ns() - began)
    return best / 1e3


def paper_trajectory(
    tuples: Iterable[tuple[int, int, int, int, int]],
    reps: int = 5,
    max_groups: int = 200,
) -> dict[str, float]:
    """Table 1's comparison on the access tables this run really built.

    The recorded ``(p, k, l, s, m)`` calls are grouped by ``(p, k, l,
    s)``; each call is re-timed with the lattice algorithm and with the
    sorting baseline (best of ``reps``) and each group reports the max
    over its ranks ``m`` -- the paper's convention.  At most
    ``max_groups`` groups are timed, picked evenly from the sorted list
    so the choice is the same on every run of a seed.
    """
    from repro.core.access import compute_access_table
    from repro.core.baselines.sorting import sorting_access_table

    groups: defaultdict[tuple, list[int]] = defaultdict(list)
    for p, k, l, s, m in tuples:
        groups[(p, k, l, s)].append(m)
    keys = sorted(groups)
    if len(keys) > max_groups:
        keys = [keys[i * len(keys) // max_groups] for i in range(max_groups)]
    lattice, sorting = [], []
    for key in keys:
        lattice.append(max(
            _best_us(compute_access_table, key + (m,), reps) for m in groups[key]
        ))
        sorting.append(max(
            _best_us(sorting_access_table, key + (m,), reps) for m in groups[key]
        ))
    return {
        "core.lattice_table_us": statistics.median(lattice),
        "core.sorting_table_us": statistics.median(sorting),
        "core.sorting_over_lattice": math.exp(statistics.fmean(
            math.log(srt / lat) for srt, lat in zip(sorting, lattice)
        )),
    }
