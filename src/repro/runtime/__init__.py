"""HPF runtime: access plans, communication schedules, execution."""

from .address import flat_local_addresses
from .commsets import CommSchedule, Transfer, compute_comm_schedule
from .commsets2d import compute_comm_schedule_2d
from .elastic import (
    ElasticPolicy,
    ElasticSession,
    MigrationFailure,
    MigrationReport,
    image_from_snapshot,
    make_relayout_target,
    relayout,
)
from .exec import (
    collect,
    distribute,
    execute_combine,
    execute_copy,
    execute_copy_2d,
    execute_fill,
    execute_transpose,
    gather_slots,
    scatter_slots,
)
from .native import NativeBuildError
from .plancache import (
    cache_stats,
    cached_array_plan,
    cached_comm_schedule,
    cached_comm_schedule_2d,
    cached_localized_arrays,
    cached_period_table,
    clear_plan_caches,
    invalidate_for_p,
)
from .redistribute import (
    RedistributionStats,
    plan_redistribution,
    redistribute,
    stats_from_schedule,
    traffic_matrix,
)
from .resilient import (
    ExchangeFailure,
    Packet,
    RecoveryEvent,
    ResilienceReport,
    RetryPolicy,
    execute_copy_resilient,
    redistribute_resilient,
)
from .sections_io import gather_section, reduce_section, scatter_section
from .triangular import (
    Trapezoid,
    trapezoid_local_counts,
    trapezoid_local_elements,
)

__all__ = [
    "flat_local_addresses",
    "CommSchedule",
    "Transfer",
    "compute_comm_schedule",
    "cached_array_plan",
    "cached_comm_schedule",
    "cached_comm_schedule_2d",
    "cached_localized_arrays",
    "cached_period_table",
    "cache_stats",
    "clear_plan_caches",
    "invalidate_for_p",
    "ElasticPolicy",
    "ElasticSession",
    "MigrationFailure",
    "MigrationReport",
    "image_from_snapshot",
    "make_relayout_target",
    "relayout",
    "distribute",
    "collect",
    "execute_copy",
    "execute_fill",
    "execute_combine",
    "execute_copy_2d",
    "execute_transpose",
    "compute_comm_schedule_2d",
    "RedistributionStats",
    "plan_redistribution",
    "redistribute",
    "stats_from_schedule",
    "traffic_matrix",
    "ExchangeFailure",
    "Packet",
    "RecoveryEvent",
    "ResilienceReport",
    "RetryPolicy",
    "execute_copy_resilient",
    "redistribute_resilient",
    "Trapezoid",
    "trapezoid_local_counts",
    "trapezoid_local_elements",
    "gather_section",
    "scatter_section",
    "reduce_section",
    "gather_slots",
    "scatter_slots",
    "NativeBuildError",
]
