# Convenience targets for the PPoPP '95 reproduction.

.PHONY: install test bench bench-kernels bench-native bench-elastic \
	bench-e2e bench-check faults soak mp-soak elastic-soak reproduce \
	examples trace profile clean clean-reports

# Seeds the fault-injection sweep runs under (space separated).
FAULT_SEED_SWEEP ?= 0 1 2 7 42
# Wider seed pool + more property draws for the soak sweep.
SOAK_SEED_SWEEP ?= 0 1 2 3 5 7 11 13 42 97
SOAK_DRAWS ?= 5
# Seeds for the multiprocess-backend soak (real processes per rank, so
# each seed costs more wall-clock than the in-process sweeps).
MP_SEED_SWEEP ?= 0 1 7
# Seeds for the elastic-membership soak (grow/shrink/migrate sweeps on
# both backends, SIGKILL-during-migration included).
ELASTIC_SEED_SWEEP ?= 0 1 7
# Where the sweep leaves its per-seed logs and junit reports (CI
# uploads this directory as an artifact when the sweep fails).
FAULT_REPORT_DIR ?= fault-reports

install:
	pip install -e . --no-build-isolation || python setup.py develop

test:
	pytest tests/

bench:
	pytest benchmarks/ --benchmark-only

# Vectorized-kernel + plan-cache benchmark; verifies the vectorized
# paths against the scalar oracles and writes BENCH_kernels.json
# (includes the native fill columns when a C compiler is present).
bench-kernels:
	python benchmarks/bench_kernels.py

# Compiled-C focus (docs/NATIVE.md): the artifact-cache and Figure 8
# emitter tests, the kernels benchmark (compiled-shape rows and gates),
# and the compiled Table 1/2 reproductions through the hashed cache.
bench-native:
	pytest -q tests/runtime/test_native.py tests/runtime/test_emit_c.py
	python benchmarks/bench_kernels.py
	python -m repro table1c
	python -m repro table2c

# Live re-layout benchmark; verifies every migration against a
# static-p' oracle and writes BENCH_elastic.json.
bench-elastic:
	python benchmarks/bench_elastic.py

# End-to-end mini-HPF benchmark (benchmarks/e2e/README.md): its own
# tests, then a quick timed + traced pass over every workload.  Every
# result is checked against an independent oracle; any mismatch fails.
bench-e2e:
	pytest -q benchmarks/e2e
	python3 benchmarks/e2e/run.py --quick --trace 0 1 --out bench-e2e-quick.json

# Same-host A/B of the end-to-end benchmark: this tree against its
# merge-base with main, checked out into a temporary git worktree, ten
# alternating timed runs a side; then four `jacobi` pairs with glibc's
# heap trim pinned on both sides (MALLOC_TOP_PAD_, see README), so a
# cell that moves in only one of the two passes reads as a heap-state
# effect, not the code's; then one traced run a side (compare.py checks
# exact counts on traced runs only).  Every pass runs; the target fails
# when any reports a `worse` metric or a count mismatch.  The worktree
# is removed either way.
bench-check:
	set -e; base=$$(git merge-base HEAD main); wt=$$(mktemp -d); rmdir "$$wt"; \
	git worktree add --detach "$$wt" "$$base"; \
	trap 'git worktree remove --force "$$wt"' EXIT; \
	status=0; \
	echo "== all workloads, 10 alternating pairs"; \
	python3 benchmarks/e2e/compare.py --checkouts "$$wt" . --repeat 10 || status=1; \
	echo "== jacobi, 4 alternating pairs, MALLOC_TOP_PAD_=67108864 on both sides (heap trim pinned)"; \
	MALLOC_TOP_PAD_=67108864 python3 benchmarks/e2e/compare.py --checkouts "$$wt" . \
		--workload jacobi --repeat 4 || status=1; \
	echo "== traced counts, seed 0"; \
	(cd "$$wt" && python3 benchmarks/e2e/run.py --trace 1 --out traced.json >/dev/null); \
	python3 benchmarks/e2e/run.py --trace 1 --out .bench_build/traced.json >/dev/null; \
	python3 benchmarks/e2e/compare.py --base "$$wt/traced.json" --new .bench_build/traced.json \
		|| status=1; \
	exit $$status

# Fault-injection + resilient-protocol suites at several seeds
# (docs/FAULT_MODEL.md): same seed => same fault trace, so any failure
# here is replayable with FAULT_SEEDS=<seed>.
faults:
	mkdir -p $(FAULT_REPORT_DIR)
	for seed in $(FAULT_SEED_SWEEP); do \
		echo "== fault sweep, seed $$seed"; \
		if ! FAULT_SEEDS=$$seed pytest -q \
			tests/machine/test_faults.py \
			tests/machine/test_audit.py \
			tests/machine/test_checkpoint.py \
			tests/runtime/test_resilient.py \
			tests/runtime/test_property_sweep.py \
			--junitxml=$(FAULT_REPORT_DIR)/seed-$$seed.xml \
			> $(FAULT_REPORT_DIR)/seed-$$seed.log 2>&1; then \
			cat $(FAULT_REPORT_DIR)/seed-$$seed.log; \
			echo "fault sweep FAILED at seed $$seed (replay: FAULT_SEEDS=$$seed)"; \
			exit 1; \
		fi; \
		tail -n 1 $(FAULT_REPORT_DIR)/seed-$$seed.log; \
	done

# Long-form soak: ~10 seeds x extra property draws over the fault,
# audit, and resilient-exchange suites (scribble + crash + wire faults).
# Flight-recorder dumps from any ExchangeFailure land in
# $(FAULT_REPORT_DIR)/ alongside the junit logs, so CI uploads them
# together.  Replay a failure with FAULT_SEEDS=<seed> SOAK_DRAWS=$(SOAK_DRAWS).
soak:
	mkdir -p $(FAULT_REPORT_DIR)
	for seed in $(SOAK_SEED_SWEEP); do \
		echo "== soak sweep, seed $$seed"; \
		if ! FAULT_SEEDS=$$seed SOAK_DRAWS=$(SOAK_DRAWS) pytest -q \
			tests/machine/test_faults.py \
			tests/machine/test_audit.py \
			tests/machine/test_checkpoint.py \
			tests/runtime/test_resilient.py \
			tests/runtime/test_property_sweep.py \
			--junitxml=$(FAULT_REPORT_DIR)/soak-$$seed.xml \
			> $(FAULT_REPORT_DIR)/soak-$$seed.log 2>&1; then \
			cat $(FAULT_REPORT_DIR)/soak-$$seed.log; \
			echo "soak sweep FAILED at seed $$seed (replay: FAULT_SEEDS=$$seed SOAK_DRAWS=$(SOAK_DRAWS))"; \
			exit 1; \
		fi; \
		tail -n 1 $(FAULT_REPORT_DIR)/soak-$$seed.log; \
	done

# Multiprocess-backend soak (docs/BACKENDS.md): the differential
# oracle-vs-real-process suites plus the SIGKILL crash scenarios, swept
# over several seeds.  Real worker processes per rank; any failure
# leaves per-PID flight-recorder/observability dumps plus junit logs in
# $(FAULT_REPORT_DIR)/ and replays with FAULT_SEEDS=<seed>.
mp-soak:
	mkdir -p $(FAULT_REPORT_DIR)
	for seed in $(MP_SEED_SWEEP); do \
		echo "== mp backend soak, seed $$seed"; \
		if ! FAULT_SEEDS=$$seed pytest -q \
			tests/machine/mp \
			tests/runtime/test_differential.py \
			--junitxml=$(FAULT_REPORT_DIR)/mp-$$seed.xml \
			> $(FAULT_REPORT_DIR)/mp-$$seed.log 2>&1; then \
			cat $(FAULT_REPORT_DIR)/mp-$$seed.log; \
			echo "mp soak FAILED at seed $$seed (replay: FAULT_SEEDS=$$seed)"; \
			exit 1; \
		fi; \
		tail -n 1 $(FAULT_REPORT_DIR)/mp-$$seed.log; \
	done

# Elastic-membership soak (docs/FAULT_MODEL.md §6): randomized p -> p'
# migration sweeps on the oracle plus the real-process grow/shrink and
# SIGKILL-during-migration suites, swept over several seeds.  Any
# failure leaves flight-recorder/observability dumps plus junit logs in
# $(FAULT_REPORT_DIR)/ and replays with FAULT_SEEDS=<seed>.
elastic-soak:
	mkdir -p $(FAULT_REPORT_DIR)
	for seed in $(ELASTIC_SEED_SWEEP); do \
		echo "== elastic soak, seed $$seed"; \
		if ! FAULT_SEEDS=$$seed pytest -q \
			tests/runtime/test_elastic.py \
			tests/machine/mp/test_mp_elastic.py \
			--junitxml=$(FAULT_REPORT_DIR)/elastic-$$seed.xml \
			> $(FAULT_REPORT_DIR)/elastic-$$seed.log 2>&1; then \
			cat $(FAULT_REPORT_DIR)/elastic-$$seed.log; \
			echo "elastic soak FAILED at seed $$seed (replay: FAULT_SEEDS=$$seed)"; \
			exit 1; \
		fi; \
		tail -n 1 $(FAULT_REPORT_DIR)/elastic-$$seed.log; \
	done

# Capture a Chrome trace + metrics summary of an instrumented run
# (docs/OBSERVABILITY.md).  Load trace.json at https://ui.perfetto.dev.
trace:
	python -m repro trace copy redistribute resilient --drop 0.2 \
		--out trace.json --summary trace-summary.txt

# Measured superstep profiles + cost-model calibration on both backends
# (docs/OBSERVABILITY.md "Profiles & calibration").  --require-traffic
# makes a silently-unattached collector a hard failure; the calibration
# gate itself is benchmarks/bench_profile.py (BENCH_profile.json).
profile:
	python -m repro profile copy redistribute --backend inprocess \
		--out PROFILE.json --require-traffic
	python -m repro profile copy redistribute --backend mp \
		--out PROFILE_mp.json --require-traffic
	python benchmarks/bench_profile.py --quick

# Regenerate every table/figure of the paper (writes to stdout).
reproduce:
	python -m repro table1
	python -m repro figure7
	python -m repro table2
	python -m repro ablations
	python -m repro opcounts
	python -m repro claims
	python -m repro costs
	python -m repro table1c
	python -m repro table2c

examples:
	for f in examples/*.py; do echo "== $$f"; python $$f || exit 1; done

clean: clean-reports
	rm -rf build dist *.egg-info src/*.egg-info .pytest_cache .hypothesis
	rm -rf .repro-native-cache
	find . -name __pycache__ -type d -exec rm -rf {} +

# Drop run artifacts: fault/soak sweep logs, flight-recorder and
# observability dumps, traces, and bench metric sidecars.
clean-reports:
	rm -rf $(FAULT_REPORT_DIR)
	rm -f trace.json trace.jsonl trace-summary.txt BENCH_*_metrics.json
	rm -f PROFILE.json PROFILE_mp.json bench-e2e-quick.json
