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
from repro.kernel.backends import (
    NumpyKernel,
    ScalarKernel,
    available_kernels,
    get_kernel,
)

__all__ = [
    "KERNELS",
    "ExecutionConfig",
    "PointColumns",
    "ScalarKernel",
    "NumpyKernel",
    "available_kernels",
    "get_kernel",
    "resolve_kernel_name",
]
