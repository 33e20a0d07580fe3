"""Ablation: packing several small systems per block.

The paper's systems-to-blocks mapping leaves small-n blocks tiny (a
64-unknown PCR block is two warps).  Packing P systems per block fills
the block out; the sweep below shows the resulting tuning curve with
an interior optimum -- more packing buys warp-level latency hiding
until the shared-memory footprint starts costing residency, the same
occupancy force that shapes Fig 17.
"""

from repro.gpusim import GTX280, gt200_cost_model
from repro.kernels.api import run_kernel
from repro.kernels.pcr_packed_kernel import run_pcr_packed
from repro.numerics.generators import diagonally_dominant_fluid

from _harness import emit, quiet, table


def _grid_ms(cm, res, blocks):
    return cm.grid_report(GTX280, blocks, res.shared_bytes,
                          res.threads_per_block, res.ledger).total_ms


def build_table() -> str:
    cm = gt200_cost_model()
    rows = []
    with quiet():
        for n, S in ((64, 256), (128, 256)):
            s = diagonally_dominant_fluid(S, n, seed=n)
            _x, plain = run_kernel("pcr", s)
            row = [f"{S}x{n}", _grid_ms(cm, plain, S)]
            for P in (2, 4, 8):
                if P * n > GTX280.max_threads_per_block:
                    row.append("too wide")
                    continue
                _x, packed = run_pcr_packed(s, P)
                row.append(_grid_ms(cm, packed, S // P))
            rows.append(row)
    return table(["size", "1/block (paper)", "2/block", "4/block",
                  "8/block"], rows) + \
        ("\n(an interior optimum: packing fills warps until the shared "
         "footprint costs residency -- the refinement production "
         "batched solvers adopted after the paper)")


def test_ablation_packed_small_systems(benchmark):
    emit("ablation_packed_small_systems", build_table())
    with quiet():
        s = diagonally_dominant_fluid(64, 64, seed=0)
        benchmark(lambda: run_pcr_packed(s, 4))


if __name__ == "__main__":
    emit("ablation_packed_small_systems", build_table())
