"""The paper's GPU kernels, written against the gpusim kernel DSL.

Running a kernel yields both the float32 solution and an architectural
trace (bank conflicts, warp issues, per-step counters) that the
calibrated cost model turns into GTX 280 milliseconds.
"""

from .api import (KERNEL_RUNNERS, LAYOUT_AWARE_KERNELS, LaunchPlan,
                  plan_launch, run_cr, run_cr_global, run_cr_pcr, run_cr_rd,
                  run_cr_split, run_kernel, run_pcr, run_pcr_pingpong,
                  run_rd, run_rd_full, run_thomas, run_thomas_batch)
from .common import GlobalSystemArrays
from .pcr_packed_kernel import run_pcr_packed
from .thomas_kernel import run_thomas_per_thread

__all__ = ["KERNEL_RUNNERS", "LAYOUT_AWARE_KERNELS", "LaunchPlan",
           "plan_launch",
           "run_cr", "run_cr_global", "run_cr_pcr", "run_cr_rd",
           "run_cr_split", "run_kernel", "run_pcr", "run_pcr_pingpong", "run_rd",
           "run_rd_full", "run_pcr_packed", "run_thomas",
           "GlobalSystemArrays",
           "run_thomas_batch", "run_thomas_per_thread"]
