"""Child process timed by ``run.py`` for ``setup_s``.

Imports the program from the checkout and builds it for one workload,
then prints ``ready``; the parent measures from spawning this process
to that line.  It then prints the mean host seconds of a calibration
unit timed here, right after the set-up; with the units the parent
timed right before spawning the probe, they scale the set-up time to
the reference host.
Usage: ``setup_probe.py WORKLOAD SEED SCRATCH_DIR``.
"""

import sys

import workloads


def main() -> None:
    name, seed, scratch = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    workloads.use_checkout_source()
    workloads.setup_program(name, seed, scratch)
    print("ready", flush=True)
    from hostclock import SETUP_UNITS, CalibrationUnit
    print(CalibrationUnit()(SETUP_UNITS) / SETUP_UNITS, flush=True)


if __name__ == "__main__":
    main()
