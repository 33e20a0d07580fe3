"""Seeded fuzzing over the verification grid, with shrinking repros.

Each iteration draws one random cell -- engine, solver, layout, matrix
class, size, batch -- from the same registries the differential
harness enumerates, runs it through :func:`repro.verify.differential.verify_cell`,
and treats any budget violation, ledger mismatch or crash as a
*failure*.  Failures are automatically **shrunk** toward a minimal
reproduction:

1. bisect the batch down to the smallest failing sub-batch;
2. bisect the system size (regenerate smaller instances of the same
   seeded class while the failure persists);
3. perturb the coefficient arrays toward simpler values (rounding,
   zeroed couplings, unit right-hand side), keeping each perturbation
   only if the cell still fails *for the same reason* (a candidate
   that fails differently is a different bug, not a smaller instance
   of this one).

The shrunk case is written as a replayable JSON *repro file* (exact
float32 bit patterns, hex-encoded).  A directory of repro files is a
*corpus*: :func:`run_fuzz` replays the corpus before fuzzing, so every
failure ever found becomes a permanent regression test.

Determinism: iteration ``i`` of ``run_fuzz(seed=s)`` derives its RNG
from :func:`repro.gpusim.pool.derive_seed` ``(s, i)``, so a failing
iteration can be re-run in isolation on any machine.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.gpusim.pool import derive_seed
from repro.kernels.api import KERNELS
from repro.solvers.api import POWER_OF_TWO_METHODS, SOLVERS
from repro.solvers.systems import TridiagonalSystems
from repro.telemetry.metrics import FUZZ_CASES, emit

from .differential import NUMPY_LAYOUTS, CellResult, CellSpec, verify_cell
from .generators import VERIFY_CLASSES, generate

REPRO_VERSION = 1

#: Power-of-two sizes the sim engine fuzzes over (kept modest: the
#: point is pattern coverage, not scale; n=512 is the harness's job).
_SIM_SIZES = (8, 16, 32, 64, 128, 256)


@dataclass(frozen=True)
class FuzzCase:
    """One drawn fuzz iteration."""

    iteration: int
    spec: CellSpec

    def label(self) -> str:
        return f"iter {self.iteration}: {self.spec.label()}"


@dataclass
class FuzzFailure:
    """A failing case plus its shrunk reproduction."""

    case: FuzzCase
    message: str
    shrunk_spec: CellSpec
    shrunk_systems: TridiagonalSystems
    shrink_steps: list[str] = field(default_factory=list)
    repro_path: str | None = None

    def to_dict(self) -> dict:
        return {"iteration": self.case.iteration,
                "spec": dataclasses.asdict(self.case.spec),
                "message": self.message,
                "shrunk_spec": dataclasses.asdict(self.shrunk_spec),
                "shrunk_num_systems": self.shrunk_systems.num_systems,
                "shrunk_n": self.shrunk_systems.n,
                "shrink_steps": self.shrink_steps,
                "repro_path": self.repro_path}


@dataclass
class FuzzReport:
    seed: int
    iterations: int = 0
    corpus_replayed: int = 0
    corpus_failures: list[str] = field(default_factory=list)
    failures: list[FuzzFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures and not self.corpus_failures

    def to_dict(self) -> dict:
        return {"ok": self.ok, "seed": self.seed,
                "iterations": self.iterations,
                "corpus_replayed": self.corpus_replayed,
                "corpus_failures": self.corpus_failures,
                "failures": [f.to_dict() for f in self.failures]}

    def summary(self) -> str:
        lines = [f"fuzz seed={self.seed}: {self.iterations} iterations, "
                 f"{len(self.failures)} failures; corpus "
                 f"{self.corpus_replayed} replayed, "
                 f"{len(self.corpus_failures)} failing"]
        for path in self.corpus_failures:
            lines.append(f"  CORPUS-FAIL {path}")
        for f in self.failures:
            lines.append(f"  FAIL {f.case.label()}: {f.message}"
                         + (f" -> {f.repro_path}" if f.repro_path else ""))
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Drawing cases
# ----------------------------------------------------------------------

def draw_case(iteration: int, seed: int) -> FuzzCase:
    """Deterministically draw iteration ``i`` of a fuzz run."""
    rng = np.random.default_rng(derive_seed(seed, iteration, "fuzz-case"))
    classes = sorted(VERIFY_CLASSES)
    klass = classes[rng.integers(len(classes))]
    num_systems = int(rng.integers(1, 9))
    if rng.random() < 0.7:
        solvers = sorted(SOLVERS)
        solver = solvers[rng.integers(len(solvers))]
        layout = NUMPY_LAYOUTS[rng.integers(len(NUMPY_LAYOUTS))]
        if solver in POWER_OF_TWO_METHODS and rng.random() < 0.5:
            # exercise the transparent padding path
            n = int(rng.integers(5, 200))
        else:
            n = int(2 ** rng.integers(3, 10))
        spec = CellSpec("numpy", solver, layout, klass, n, num_systems,
                        seed=int(derive_seed(seed, iteration, "data")))
    else:
        kernels = sorted(KERNELS)
        solver = kernels[rng.integers(len(kernels))]
        n = int(_SIM_SIZES[rng.integers(len(_SIM_SIZES))])
        layout = "global"
        if "interleaved" in KERNELS[solver].layouts and rng.random() < 0.5:
            layout = "interleaved"
        spec = CellSpec("sim", solver, layout, klass, n, num_systems,
                        seed=int(derive_seed(seed, iteration, "data")))
    return FuzzCase(iteration, spec)


# ----------------------------------------------------------------------
# Shrinking
# ----------------------------------------------------------------------

def _failure_kind(message: str) -> str:
    """Coarse fingerprint of *why* a cell failed.

    Shrinking must preserve it: a candidate that still "fails" but for
    a different reason (say, a perturbation that zeroes the
    super-diagonal and trips RD's division instead of the original
    residual blow-up) is a different bug and would make the minimized
    repro useless as a regression test for the original one.
    """
    if message.startswith("solver raised"):
        return "crash"
    if message.startswith("ledger"):
        return "ledger"
    if "overflowed" in message:
        return "overflow"
    if "ULPs" in message:
        return "ulp"
    return "residual"


def _fails(spec: CellSpec, systems: TridiagonalSystems,
           kind: str | None = None) -> bool:
    spec = dataclasses.replace(spec, num_systems=systems.num_systems,
                               n=systems.n)
    result = verify_cell(spec, systems)
    if result.status != "fail":
        return False
    return kind is None or _failure_kind(result.message) == kind


def shrink_failure(spec: CellSpec,
                   systems: TridiagonalSystems | None = None,
                   ) -> tuple[CellSpec, TridiagonalSystems, list[str]]:
    """Shrink a failing cell to a minimal failing reproduction.

    Returns ``(spec, systems, steps)`` where ``steps`` documents each
    accepted shrink.  The input cell must actually fail; shrinking is
    greedy and every intermediate candidate is re-verified, so the
    returned case always still fails.
    """
    if systems is None:
        systems = generate(spec.matrix_class, spec.num_systems, spec.n,
                           seed=spec.seed)
    first = verify_cell(dataclasses.replace(
        spec, num_systems=systems.num_systems, n=systems.n), systems)
    if first.status != "fail":
        raise ValueError(f"cell {spec.label()} does not fail; "
                         "nothing to shrink")
    # Every accepted shrink must fail for the *same reason* as the
    # original (see _failure_kind).
    kind = _failure_kind(first.message)
    steps: list[str] = []

    # 1. Bisect the batch down to the smallest failing sub-batch.
    while systems.num_systems > 1:
        half = systems.num_systems // 2
        lo = systems.take(np.arange(half))
        hi = systems.take(np.arange(half, systems.num_systems))
        if _fails(spec, lo, kind):
            systems = lo
        elif _fails(spec, hi, kind):
            systems = hi
        else:
            break   # failure needs the whole batch (can't split further)
        steps.append(f"batch -> {systems.num_systems} systems")

    # 2. Bisect the system size: regenerate smaller seeded instances.
    min_n = 8 if spec.engine == "sim" else 4
    n = systems.n
    while n // 2 >= min_n:
        n_try = n // 2
        cand = generate(spec.matrix_class, systems.num_systems, n_try,
                        seed=spec.seed)
        if not _fails(spec, cand, kind):
            break
        systems, n = cand, n_try
        steps.append(f"n -> {n}")

    # 3. Perturb toward the simplest failing coefficients.
    for name, perturb in (
            ("round to 2 decimals", lambda s: TridiagonalSystems(
                np.round(s.a, 2), np.round(s.b, 2),
                np.round(s.c, 2), np.round(s.d, 2))),
            ("unit rhs", lambda s: TridiagonalSystems(
                s.a, s.b, s.c, np.ones_like(s.d))),
            ("zero sub-diagonal", lambda s: TridiagonalSystems(
                np.zeros_like(s.a), s.b, s.c, s.d)),
            ("zero super-diagonal", lambda s: TridiagonalSystems(
                s.a, s.b, np.zeros_like(s.c), s.d))):
        cand = perturb(systems)
        if _fails(spec, cand, kind):
            systems = cand
            steps.append(name)

    spec = dataclasses.replace(spec, num_systems=systems.num_systems,
                               n=systems.n)
    return spec, systems, steps


# ----------------------------------------------------------------------
# Repro files
# ----------------------------------------------------------------------

def write_repro(path, spec: CellSpec, systems: TridiagonalSystems,
                message: str = "", shrink_steps=()) -> str:
    """Write a replayable repro file (exact bit patterns)."""
    payload = {
        "version": REPRO_VERSION,
        "spec": dataclasses.asdict(spec),
        "message": message,
        "shrink_steps": list(shrink_steps),
        "dtype": systems.a.dtype.name,
        "shape": list(systems.shape),
        "arrays": {name: np.ascontiguousarray(arr).tobytes().hex()
                   for name, arr in (("a", systems.a), ("b", systems.b),
                                     ("c", systems.c), ("d", systems.d))},
    }
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=1, sort_keys=True))
    return str(path)


def load_repro(path) -> tuple[CellSpec, TridiagonalSystems]:
    payload = json.loads(Path(path).read_text())
    if payload.get("version") != REPRO_VERSION:
        raise ValueError(f"unsupported repro version in {path}: "
                         f"{payload.get('version')!r}")
    spec = CellSpec(**payload["spec"])
    dtype = np.dtype(payload["dtype"])
    shape = tuple(payload["shape"])
    arrs = {name: np.frombuffer(bytes.fromhex(hexed),
                                dtype=dtype).reshape(shape)
            for name, hexed in payload["arrays"].items()}
    return spec, TridiagonalSystems(arrs["a"], arrs["b"], arrs["c"],
                                    arrs["d"])


def replay_repro(path) -> CellResult:
    """Re-run a repro file through the harness; the verdict is live."""
    spec, systems = load_repro(path)
    return verify_cell(spec, systems)


# ----------------------------------------------------------------------
# The fuzz loop
# ----------------------------------------------------------------------

def run_fuzz(seed: int = 0, iters: int = 100, corpus_dir=None,
             shrink: bool = True, progress=None) -> FuzzReport:
    """Replay the corpus, then fuzz ``iters`` fresh cases.

    New failures are shrunk and, when ``corpus_dir`` is given, written
    there as repro files (named by seed and iteration, so re-runs
    overwrite rather than duplicate).
    """
    report = FuzzReport(seed=seed)
    corpus = Path(corpus_dir) if corpus_dir is not None else None

    if corpus is not None and corpus.is_dir():
        for path in sorted(corpus.glob("*.json")):
            result = replay_repro(path)
            report.corpus_replayed += 1
            emit(FUZZ_CASES, status=("corpus_fail" if result.status == "fail"
                                     else "corpus_pass"))
            if result.status == "fail":
                report.corpus_failures.append(str(path))

    for i in range(iters):
        case = draw_case(i, seed)
        result = verify_cell(case.spec)
        report.iterations += 1
        emit(FUZZ_CASES, status=result.status)
        if progress is not None:
            progress(case, result)
        if result.status != "fail":
            continue
        if shrink:
            spec, systems, steps = shrink_failure(case.spec)
        else:
            spec = case.spec
            systems = generate(spec.matrix_class, spec.num_systems,
                               spec.n, seed=spec.seed)
            steps = []
        failure = FuzzFailure(case, result.message, spec, systems, steps)
        if corpus is not None:
            failure.repro_path = write_repro(
                corpus / f"repro-s{seed}-i{case.iteration}.json",
                spec, systems, message=result.message, shrink_steps=steps)
        report.failures.append(failure)
    return report
