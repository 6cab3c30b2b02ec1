"""Cost model: per-operation CPU times calibrated from Figure 1.

The paper models an accelerator as running computation C in
``cpu_time / speedup`` (Section VI). This module derives, for each
service, the *software* (CPU) time of each tax operation: the service's
per-category time (total time x Figure 1 fraction) divided by the
number of operations of that category along its most-common path. A
sampled payload's size scales the op time around the service's median
wire size. Processor generations scale AppLogic and tax differently
(Section VII.C.4).
"""

from __future__ import annotations

from typing import Dict, Optional

from ..core.registry import TraceRegistry
from ..hw.ops import AccelOp
from ..hw.params import AcceleratorKind, ProcessorGeneration
from .calibration import TaxCategory
from .payloads import PayloadModel
from .spec import CATEGORY_OF_KIND, CpuSegment, ServiceSpec, count_ops_by_category

__all__ = ["CostModel"]


class CostModel:
    """Per-service operation costs, generation-aware."""

    #: Size scaling of an op's time relative to the median payload is
    #: clamped to this range (fixed per-op overheads dominate small
    #: messages; very large ones stream efficiently).
    MIN_SIZE_SCALE = 0.3
    MAX_SIZE_SCALE = 3.0

    def __init__(
        self,
        registry: TraceRegistry,
        generation: Optional[ProcessorGeneration] = None,
    ):
        self.registry = registry
        self.generation = generation
        self._per_op_cache: Dict[str, Dict[str, float]] = {}

    # -- calibration ------------------------------------------------------
    def _per_op_times(self, spec: ServiceSpec) -> Dict[str, float]:
        """Base CPU time per op, by tax category, for one service."""
        cached = self._per_op_cache.get(spec.name)
        if cached is not None:
            return cached
        counts = count_ops_by_category(self.registry, spec)
        times: Dict[str, float] = {}
        for category in TaxCategory.TAX:
            count = counts[category]
            category_ns = spec.category_time_ns(category)
            times[category] = category_ns / count if count else 0.0
        self._per_op_cache[spec.name] = times
        return times

    def _tax_scale(self) -> float:
        return self.generation.tax_scale if self.generation else 1.0

    def _app_scale(self) -> float:
        return self.generation.app_logic_scale if self.generation else 1.0

    # -- queries ------------------------------------------------------------
    def base_op_time_ns(self, spec: ServiceSpec, kind: AcceleratorKind) -> float:
        """Software time of one op of ``kind`` at the median payload."""
        category = CATEGORY_OF_KIND[kind]
        return self._per_op_times(spec)[category] * self._tax_scale()

    def size_scale(self, spec: ServiceSpec, wire_size: int) -> float:
        ratio = wire_size / spec.wire_median_bytes
        return min(self.MAX_SIZE_SCALE, max(self.MIN_SIZE_SCALE, ratio))

    def op_for(
        self, spec: ServiceSpec, kind: AcceleratorKind, wire_size: int
    ) -> AccelOp:
        """Build the :class:`AccelOp` of one trace step."""
        cpu_ns = self.base_op_time_ns(spec, kind) * self.size_scale(spec, wire_size)
        data_in, data_out = PayloadModel.sizes_for(kind, wire_size)
        return AccelOp(kind, cpu_ns, data_in, data_out)

    def cpu_segment_ns(self, spec: ServiceSpec, segment: CpuSegment) -> float:
        """AppLogic time of one CPU segment (generation-scaled)."""
        return spec.cpu_segment_ns(segment) * self._app_scale()

    def software_chain_ns(self, spec: ServiceSpec, kinds, wire_size: int) -> float:
        """Software time of running a whole op sequence on a core
        (the Non-acc architecture and CPU-fallback paths)."""
        return sum(
            self.base_op_time_ns(spec, kind) * self.size_scale(spec, wire_size)
            for kind in kinds
        )

    def validate(self, spec: ServiceSpec) -> None:
        """Check the spec's time budget is fully attributable.

        A tax category with a nonzero Figure-1 fraction but zero
        operations on the most-common path would silently lose that
        share of the service's execution time.
        """
        counts = count_ops_by_category(self.registry, spec)
        for category in TaxCategory.TAX:
            if spec.fractions.get(category, 0.0) > 0.0 and counts[category] == 0:
                raise ValueError(
                    f"service {spec.name}: {category} has a time fraction but "
                    "no operations on the most-common path"
                )