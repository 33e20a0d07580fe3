"""Helpers shared by the kernel tests."""

from repro.kernels.api import execute, plan_launch


def traced_kernel(name, systems, **plan_args):
    """Run kernel ``name`` on the simulator -- a traced launch, as
    ``repro verify`` makes -- and return ``(x, LaunchResult)``.

    A planned :func:`~repro.kernels.api.run_kernel` takes ``x`` from
    the kernel's solver twin, so a test that holds a kernel's float32
    arithmetic to its twin (or to another kernel) must trace.
    """
    plan = plan_launch(name, systems.n, systems.num_systems, **plan_args)
    gmem = plan.load(systems)
    result = execute(plan, gmem)
    return gmem.solution()[:systems.num_systems], result
