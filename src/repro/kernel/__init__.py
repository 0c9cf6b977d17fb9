"""Columnar geometry kernels and the execution-strategy surface.

``repro.kernel`` turns the paper's per-object hot paths into batch
evaluation over struct-of-arrays candidate sets, and defines
:class:`~repro.kernel.config.ExecutionConfig` — the one typed knob that
selects the geometry kernel (scalar vs numpy) everywhere queries run
and the width of the shard fan-out pool.
"""

from repro.kernel.config import (
    KERNELS,
    ExecutionConfig,
    resolve_kernel_name,
)
from repro.kernel.columns import PointColumns

__all__ = [
    "KERNELS",
    "ExecutionConfig",
    "PointColumns",
    "resolve_kernel_name",
]
