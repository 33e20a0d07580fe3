# Convenience targets for the reproduction.

PY ?= python

.PHONY: test test-fast bench bench-engine bench-serve bench-overload bench-layout bench-fidelity perfbench figures report profile chaos serve-chaos serve-health serve-overload verify verify-full fuzz calibrate examples clean

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
	$(PY) benchmarks/bench_serve_latency.py

bench-overload:  ## overload-shedding perf smoke (fails on interactive
                 ## sheds, goodput drops, p99 regressions >25%, or a
                 ## request finishing before it arrives)
	$(PY) benchmarks/bench_overload.py

bench-layout:    ## layout-autotuner perf smoke (fails on choice flips,
                 ## coalescing regressions, or a fold-line miss)
	$(PY) benchmarks/bench_layout_autotune.py

bench-fidelity:  ## paper-fidelity ratchet (fails if the model's error
                 ## against any number in repro.paper grows)
	$(PY) benchmarks/bench_paper_fidelity.py

perfbench:       ## host-time benchmark: the three perfbench workloads at
                 ## --trace 0 (SEED=1, SECONDS=20 overridable), one final
                 ## JSON line each; fails if a run's checks fail
	@for w in serve_overload serve_faults paper_grid; do \
	  echo "== $$w"; \
	  out=$$($(PY) perfbench/run.py --workload $$w --seed $(or $(SEED),1) \
	    --seconds $(or $(SECONDS),20) --trace 0); rc=$$?; \
	  echo "$$out" | tail -n 1; [ $$rc -eq 0 ] || exit $$rc; done

figures:         ## regenerate every registered table/figure artifact in benchmarks/results/
	@benches=$$($(PY) -c "from repro.experiments import EXPERIMENTS; \
	  print(' '.join(e.bench for e in EXPERIMENTS))") || exit 1; \
	cd benchmarks && for b in $$benches; do \
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
