"""HPF data-mapping substrate: sections, layouts, distributions,
alignments, and distributed-array descriptors (paper Sections 1-2)."""

from .align import IDENTITY, Alignment
from .array import AxisMap, DistributedArray
from .dist import (
    Block,
    Collapsed,
    Cyclic,
    CyclicK,
    Distribution,
    ProcessorGrid,
    Replicated,
    Template,
)
from .layout import CyclicLayout, ElementCoords
from .localize import (
    LocalizedTable,
    RankFunction,
    localize_section,
    localized_arrays,
    localized_elements,
)
from .period import PeriodTable, build_period_table
from .section import RegularSection

__all__ = [
    "Alignment",
    "IDENTITY",
    "AxisMap",
    "DistributedArray",
    "Block",
    "Cyclic",
    "CyclicK",
    "Collapsed",
    "Replicated",
    "Distribution",
    "ProcessorGrid",
    "Template",
    "CyclicLayout",
    "ElementCoords",
    "RegularSection",
    "LocalizedTable",
    "RankFunction",
    "localize_section",
    "localized_elements",
    "localized_arrays",
    "PeriodTable",
    "build_period_table",
]
