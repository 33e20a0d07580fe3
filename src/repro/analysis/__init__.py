"""The paper's measurement/analysis methodology (its first
contribution): differential timing, resource breakdowns, bank-conflict
analysis, complexity validation, switch-point autotuning, and the
calibrated CPU baseline model."""

from .advisor import Recommendation, analyze
from .advisor import report as advisor_report
from .autotune import SweepResult, best_switch_point, sweep_switch_point
from .bankconflict import (ConflictStep, forward_reduction_conflicts,
                           overall_conflict_penalty)
from .breakdown import (ResourceBreakdown, compute_time_as_remainder,
                        resource_breakdown, shared_time_by_substitution)
from .complexity import (ComplexityRow, MeasuredComplexity, compare,
                         cr_complexity, cr_pcr_complexity, cr_rd_complexity,
                         measured_complexity, pcr_complexity, rd_complexity,
                         table1)
from .cpumodel import CpuTimes, cpu_times, ge_ms, gep_ms, mt_ms, speedup
from .device_study import FERMI_LIKE, DeviceComparison, compare_devices, occupancy_shift
from .differential import (StepTiming, attributed_step_times,
                           differential_step_times, phase_breakdown)
from .layout_autotuner import LayoutChoice, choose_layout
from .trace import full_trace, phase_trace, step_trace
from .roofline import (DeviceRoofs, RooflinePoint, device_roofs,
                       place_kernel, roofline_table)
from .timing import (SolverTiming, best_gpu_ms, compare_solvers,
                     modeled_grid_timing, timed_solve)

__all__ = [
    "Recommendation", "analyze", "advisor_report",
    "SweepResult", "best_switch_point", "sweep_switch_point",
    "ConflictStep", "forward_reduction_conflicts", "overall_conflict_penalty",
    "ResourceBreakdown", "compute_time_as_remainder", "resource_breakdown",
    "shared_time_by_substitution", "ComplexityRow", "MeasuredComplexity",
    "compare", "cr_complexity", "cr_pcr_complexity", "cr_rd_complexity",
    "measured_complexity", "pcr_complexity", "rd_complexity", "table1",
    "CpuTimes", "cpu_times", "ge_ms", "gep_ms", "mt_ms", "speedup",
    "FERMI_LIKE", "DeviceComparison", "compare_devices", "occupancy_shift",
    "StepTiming", "attributed_step_times", "differential_step_times",
    "phase_breakdown", "SolverTiming", "best_gpu_ms", "compare_solvers",
    "modeled_grid_timing", "timed_solve", "full_trace", "phase_trace",
    "step_trace", "DeviceRoofs", "RooflinePoint", "device_roofs",
    "place_kernel", "roofline_table",
    "LayoutChoice", "choose_layout",
]
