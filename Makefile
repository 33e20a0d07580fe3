# Convenience targets for the reproduction.

PY ?= python

.PHONY: test test-fast bench bench-engine bench-serve bench-overload bench-layout figures report profile chaos serve-chaos serve-health serve-overload verify verify-full fuzz calibrate examples clean

test:            ## full test suite (incl. heavy example smoke tests)
	$(PY) -m pytest tests/

test-fast:       ## tests without the slow end-to-end example runs
	$(PY) -m pytest tests/ -m "not slow"

bench:           ## all table/figure/ablation benchmarks (pytest-benchmark)
	$(PY) -m pytest benchmarks/ --benchmark-only

bench-engine:    ## vectorized-engine perf smoke (fails below 10x over the
                 ## per-lane oracle or on any bitwise ledger mismatch)
	$(PY) benchmarks/bench_vectorized_engine.py --quick

bench-serve:     ## serve-latency perf smoke (fails if p99 regresses >25%
                 ## vs the committed baseline; --update to rebaseline)
	$(PY) benchmarks/bench_serve_latency.py --check

bench-overload:  ## overload-shedding perf smoke (fails on interactive
                 ## sheds, goodput drops, or p99 regressions >25%)
	$(PY) benchmarks/bench_overload.py --check

bench-layout:    ## layout-autotuner perf smoke (fails on choice flips,
                 ## coalescing regressions, or analytic/measured drift)
	$(PY) benchmarks/bench_layout_autotune.py --quick --check

figures:         ## regenerate every table/figure text artifact in benchmarks/results/
	@cd benchmarks && for b in bench_*.py; do \
	  case $$b in bench_cpu_wallclock.py|bench_extension_solvers.py|bench_layout_autotune.py|bench_vectorized_engine.py) continue;; esac; \
	  echo "== $$b"; $(PY) $$b > /dev/null || exit 1; done

report:          ## paper-vs-model Markdown report
	$(PY) -m repro report -o REPRODUCTION_REPORT.md

profile:         ## quick telemetry smoke: write + validate profile artifacts
	$(PY) -m repro profile --quick --outdir profiles
	$(PY) -c "import glob, json; \
	  path = sorted(glob.glob('profiles/*.trace.json'))[-1]; \
	  doc = json.load(open(path)); \
	  assert doc['traceEvents'], path; \
	  print(f'{path}: {len(doc[\"traceEvents\"])} trace events ok')"

chaos:           ## fault-injection suite, run twice to prove the seeded
                 ## plans are deterministic (identical pass/fail both runs)
	$(PY) -m pytest tests/ -m chaos -q
	$(PY) -m pytest tests/ -m chaos -q

serve-chaos:     ## serving-layer chaos suite (breakers, deadlines,
                 ## kill/resume), run twice for the determinism proof
	$(PY) -m pytest tests/ -m serve -q
	$(PY) -m pytest tests/ -m serve -q

serve-health:    ## device lifecycle suite (quarantine/readmission, hedged
                 ## chunks, warm spares), run twice for the determinism proof
	$(PY) -m pytest tests/ -m health -q
	$(PY) -m pytest tests/ -m health -q

serve-overload:  ## multi-tenant overload acceptance suite (admission,
                 ## quotas, shedding), run twice for the determinism proof
	$(PY) -m pytest tests/ -m overload -q
	$(PY) -m pytest tests/ -m overload -q

verify:          ## 30-second headline reproduction check
	$(PY) -m repro verify

verify-full:     ## headline + differential oracle grid + invariant checker
	$(PY) -m repro verify --all

fuzz:            ## seeded differential fuzzing (SEED/ITERS overridable)
	$(PY) -m repro fuzz --seed $(or $(SEED),0) --iters $(or $(ITERS),200) \
	  --corpus fuzz-corpus

calibrate:       ## re-fit the GT200 cost model against the paper's numbers
	$(PY) -m repro.gpusim.calibrate

examples:        ## run every example script
	@for e in examples/*.py; do echo "== $$e"; $(PY) $$e > /dev/null || exit 1; done

clean:
	rm -rf .pytest_cache .hypothesis benchmarks/.benchmarks
	find . -name __pycache__ -type d -exec rm -rf {} +
