"""The paper's GPU kernels, written against the gpusim kernel DSL.

Running a kernel yields both the float32 solution and an architectural
trace (bank conflicts, warp issues, per-step counters) that the
calibrated cost model turns into GTX 280 milliseconds.
"""

from .api import KERNELS, LaunchPlan, plan_launch, run_kernel
from .common import GlobalSystemArrays
from .pcr_packed_kernel import run_pcr_packed

__all__ = ["KERNELS", "LaunchPlan", "plan_launch", "run_kernel",
           "run_pcr_packed", "GlobalSystemArrays"]
