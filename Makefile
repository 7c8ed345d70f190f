# Convenience targets; everything assumes the in-tree layout (PYTHONPATH=src).

PYTHON ?= python
export PYTHONPATH := src

.PHONY: test bench results-check smoke perf-smoke chaos-smoke resume-smoke fabric-smoke model-smoke bench-store service-smoke recovery-smoke bench-service

## Tier-1: the full unit/integration suite (what CI gates on).
test:
	$(PYTHON) -m pytest -x -q

## Tier-2: the E1-E13 experiment suite; regenerates benchmarks/results/.
bench:
	$(PYTHON) -m pytest -q benchmarks/

## Results drift check: rerun the E1-E9 and E11-E13 benches (~5 s, timings
## off) and fail if any of their tables under benchmarks/results/ changed.
## The tables are deterministic and cover Alg. 3's fold, Okun's fold, early
## deciding, the message counters, the consensus baseline's EIG (E7) and the
## system-model injectors (E13), so a diff there is a behaviour change, not
## noise.
RESULTS_CHECK := e1 e2 e3 e4 e5 e6 e7 e8 e9 e11 e12 e13
results-check:
	$(PYTHON) -m pytest -q --benchmark-disable \
		$(foreach e,$(RESULTS_CHECK),$(wildcard benchmarks/bench_$(e)_*.py))
	git diff --exit-code -- \
		$(foreach e,$(RESULTS_CHECK),benchmarks/results/$(e).txt)

## Fast end-to-end check: one small sweep grid through every mode of the
## one cell loop — in-process (--workers 1), the process pool with a cache
## (--workers 2 --cache), an in-process worker on a result store
## (--store DIR), and the same with every cell in a budget-policed child
## (--cell-wall) — plus a pooled run on the reference engine. All five
## CSVs must be byte-identical. Catches pool pickling, cache, store and
## isolation round-trip regressions, and engine drift, in seconds.
SMOKE_DIR := .smoke
SMOKE_GRID := --algorithms alg1 okun-crash cht translated --sizes 4:1 5:1 \
	--attacks silent crash --seeds 0 1
smoke:
	rm -rf $(SMOKE_DIR)
	mkdir -p $(SMOKE_DIR)
	$(PYTHON) -m repro.cli sweep $(SMOKE_GRID) --engine batched \
		--workers 1 --csv $(SMOKE_DIR)/serial.csv
	$(PYTHON) -m repro.cli sweep $(SMOKE_GRID) --engine batched \
		--workers 2 --cache $(SMOKE_DIR)/cache --csv $(SMOKE_DIR)/pool.csv
	$(PYTHON) -m repro.cli sweep $(SMOKE_GRID) --engine batched \
		--workers 1 --store $(SMOKE_DIR)/store --csv $(SMOKE_DIR)/store.csv
	$(PYTHON) -m repro.cli sweep $(SMOKE_GRID) --workers 1 \
		--store $(SMOKE_DIR)/budget --cell-wall 60 --csv $(SMOKE_DIR)/budget.csv
	$(PYTHON) -m repro.cli sweep $(SMOKE_GRID) --engine reference \
		--workers 2 --csv $(SMOKE_DIR)/reference.csv
	cmp $(SMOKE_DIR)/serial.csv $(SMOKE_DIR)/pool.csv
	cmp $(SMOKE_DIR)/serial.csv $(SMOKE_DIR)/store.csv
	cmp $(SMOKE_DIR)/serial.csv $(SMOKE_DIR)/budget.csv
	cmp $(SMOKE_DIR)/serial.csv $(SMOKE_DIR)/reference.csv
	rm -rf $(SMOKE_DIR)

## Benchmark correctness smoke: every perfbench workload for 2 s, then one
## traced flood second, which exercises the tracer's patch points (among
## them Engine.execute), one traced sweep second, which must time calls
## into isValid and approximate, and one traced service-journal second,
## which must time the client's read_frame/write_frame and validate_names
## calls: a refactor that routes around the names the tracer patches
## would otherwise empty the per-layer table silently.
## The benchmark checks its own ops (check_renaming verdicts, byte-equal
## journal replays, repeat counts); each step fails unless its final JSON
## line reports "correct": true and every metric named after its
## "workload seconds trace" triple is above zero. Timings are not gated.
PERF_SMOKE_SWEEP_LAYERS := core.validation.is_valid_ranks.calls_per_op \
	core.approximation.approximate.calls_per_op
PERF_SMOKE_SERVICE_LAYERS := service.frames.read_frame.client.calls_per_op \
	service.frames.write_frame.client.calls_per_op \
	service.load.validate_names.calls_per_op \
	service.journal.SessionJournal.append.calls_per_op
perf-smoke:
	@for run in "all 2 0" "flood 1 1" "sweep 1 1 $(PERF_SMOKE_SWEEP_LAYERS)" \
		"service-journal 1 1 $(PERF_SMOKE_SERVICE_LAYERS)"; do \
		set -- $$run; workload=$$1; seconds=$$2; trace=$$3; shift 3; \
		out=$$($(PYTHON) perfbench/run.py --workload $$workload \
			--seconds $$seconds --trace $$trace --seed 1) \
			|| { echo "$$out"; exit 1; }; \
		echo "$$out"; \
		echo "$$out" | tail -n 1 | $(PYTHON) -c \
			'import json, sys; r = json.load(sys.stdin); sys.exit(r.get("correct") is not True or any(r["metrics"][m]["value"] <= 0 for m in sys.argv[1:]))' \
			"$$@" || exit 1; \
	done

## Beyond-model fault-injection campaign on both engines via the chaos
## CLI, serially in-process (--workers 1), on the process pool
## (--workers 2) and on the result store (--workers 1 --journal DIR, so
## every verdict goes through the stored record's encode and decode).
## Exit 0 means the campaign is healthy (every injection classified, no
## quarantined cells, no silent successes) — individual detections and
## property violations are findings, not failures. A campaign that hangs,
## drops a run, or lets an injected fault pass unverified fails here, and
## so does any difference between the pool's or the store's canonical
## triage report and the serial one (wall-clock and pool size scrubbed).
CHAOS_SMOKE_DIR := .chaos-smoke
CHAOS_SMOKE_GRID := --algorithms alg1 alg4 --sizes 7:2 11:2 --seeds 0 1 \
	--chaos-seeds 0 1 --engines batched reference --preset smoke
chaos-smoke:
	rm -rf $(CHAOS_SMOKE_DIR)
	mkdir -p $(CHAOS_SMOKE_DIR)
	$(PYTHON) -m repro.cli chaos $(CHAOS_SMOKE_GRID) --workers 1 \
		--timeout 120 --json $(CHAOS_SMOKE_DIR)/serial.json
	$(PYTHON) -m repro.cli chaos $(CHAOS_SMOKE_GRID) --workers 2 \
		--timeout 120 --json $(CHAOS_SMOKE_DIR)/pool.json
	$(PYTHON) -m repro.cli chaos $(CHAOS_SMOKE_GRID) --workers 1 \
		--timeout 120 --journal $(CHAOS_SMOKE_DIR)/runs --run-id smoke \
		--json $(CHAOS_SMOKE_DIR)/journal.json
	$(PYTHON) -c 'import json, sys; \
		from repro.analysis.envelope import canonical_json; \
		a, *rest = (canonical_json(json.load(open(p))) for p in sys.argv[1:]); \
		sys.exit(any(a != b for b in rest))' \
		$(CHAOS_SMOKE_DIR)/serial.json $(CHAOS_SMOKE_DIR)/pool.json \
		$(CHAOS_SMOKE_DIR)/journal.json
	rm -rf $(CHAOS_SMOKE_DIR)

## Durability smoke: SIGKILL a --journal ~50-cell campaign mid-flight
## (deterministically, right after the 20th finished cell becomes durable
## in its result store), resume it on two spawned workers, and assert via
## the store's own event log that not one finished cell was re-executed,
## and that the resumed triage report is canonically identical to an
## uninterrupted --workers 1 control run of the same grid (restored and
## freshly run cells decode alike). The kill step runs --workers 1 so the
## crash hook fires in the process that owns the run (spawned workers
## would each die and be respawned). It exits 137 by design (the leading
## '-' ignores it); the resume, the doctor assertion and the report
## comparison gate. A torn event (an append cut mid-line) is then glued
## onto the killed run's event log: the resume must cut it, so every line
## of the log still parses after the resumed run appended to it. Finally
## `explain` re-runs stored cells and checks them against their records:
## cell 0 (a clean control cell finished before the kill) and cell 45 (the
## last clean control cell, finished after the resume) must reproduce with
## exit 0, and cell 49 (a drop cell the monitor detected) must reproduce
## its stored typed error, exit 2.
RESUME_SMOKE_DIR := .resume-smoke
RESUME_SMOKE_GRID := --algorithms alg1 --sizes 7:2 \
	--seeds 0 1 2 3 4 5 6 7 8 9 --chaos-seeds 0 1 --drop 0.05 0.1
resume-smoke:
	rm -rf $(RESUME_SMOKE_DIR)
	-REPRO_STORE_CRASH_AFTER=finish:20 $(PYTHON) -m repro.cli chaos \
		$(RESUME_SMOKE_GRID) --workers 1 --timeout 120 \
		--journal $(RESUME_SMOKE_DIR) --run-id smoke
	printf '{"event":"tor' >> $(RESUME_SMOKE_DIR)/smoke/events.jsonl
	$(PYTHON) -m repro.cli runs resume smoke --runs-dir $(RESUME_SMOKE_DIR) \
		--workers 2 --json $(RESUME_SMOKE_DIR)/resumed.json
	$(PYTHON) -c 'import json, sys; \
		[json.loads(line) for line in open(sys.argv[1], "rb")]' \
		$(RESUME_SMOKE_DIR)/smoke/events.jsonl
	$(PYTHON) -m repro.cli runs doctor smoke --runs-dir $(RESUME_SMOKE_DIR) \
		--assert-no-reexecution
	$(PYTHON) -m repro.cli explain --cell dir:$(RESUME_SMOKE_DIR)/smoke#0
	$(PYTHON) -m repro.cli explain --cell dir:$(RESUME_SMOKE_DIR)/smoke#45
	$(PYTHON) -m repro.cli explain --cell dir:$(RESUME_SMOKE_DIR)/smoke#49; \
		test $$? -eq 2
	$(PYTHON) -m repro.cli chaos $(RESUME_SMOKE_GRID) --workers 1 \
		--timeout 120 --json $(RESUME_SMOKE_DIR)/control.json
	$(PYTHON) -c 'import json, sys; \
		from repro.analysis.envelope import canonical_json; \
		a, b = (canonical_json(json.load(open(p))) for p in sys.argv[1:]); \
		sys.exit(a != b)' \
		$(RESUME_SMOKE_DIR)/resumed.json $(RESUME_SMOKE_DIR)/control.json
	rm -rf $(RESUME_SMOKE_DIR)

## Fabric smoke: the full distributed arrangement on one host — a
## coordinator-only sweep seeding a shared directory store, two separately
## started pull-based workers draining it — then assert zero cells were
## executed twice (store event log, via the doctor) and that the CSV is
## byte-identical to a single-process control run. The 320-cell grid
## keeps both workers claiming for a few seconds, so they really contend.
FABRIC_SMOKE_DIR := .fabric-smoke
FABRIC_SMOKE_GRID := --algorithms alg1 alg4 okun-crash floodset consensus \
	alg1-constant --sizes 7:2 10:3 --seeds $(shell seq 0 39)
fabric-smoke:
	rm -rf $(FABRIC_SMOKE_DIR)
	mkdir -p $(FABRIC_SMOKE_DIR)
	$(PYTHON) -m repro.cli sweep $(FABRIC_SMOKE_GRID) --workers 1 \
		--csv $(FABRIC_SMOKE_DIR)/control.csv
	$(PYTHON) -m repro.cli sweep $(FABRIC_SMOKE_GRID) \
		--store dir:$(FABRIC_SMOKE_DIR)/store --coordinator-only \
		--csv $(FABRIC_SMOKE_DIR)/fabric.csv & COORD=$$!; \
	$(PYTHON) -m repro.cli worker \
		--store dir:$(FABRIC_SMOKE_DIR)/store --worker-id smoke-w1 \
		--wait-for-store 60 & W1=$$!; \
	$(PYTHON) -m repro.cli worker \
		--store dir:$(FABRIC_SMOKE_DIR)/store --worker-id smoke-w2 \
		--wait-for-store 60 & W2=$$!; \
	wait $$COORD && wait $$W1 && wait $$W2
	$(PYTHON) -m repro.cli runs doctor \
		--store dir:$(FABRIC_SMOKE_DIR)/store --assert-no-reexecution
	cmp $(FABRIC_SMOKE_DIR)/control.csv $(FABRIC_SMOKE_DIR)/fabric.csv
	rm -rf $(FABRIC_SMOKE_DIR)

## System-model smoke: one canned scenario per non-classic model axis,
## then one model sweep per execution path — the dir-cached process pool
## (impersonation) and the directory store fabric with a pull-based worker
## (partial synchrony) — so model serialization is exercised through
## cache entries and store rows, not just in-process calls. Exit 0
## means every run held the properties its model guarantees.
MODEL_SMOKE_DIR := .model-smoke
model-smoke:
	rm -rf $(MODEL_SMOKE_DIR)
	mkdir -p $(MODEL_SMOKE_DIR)
	$(PYTHON) -m repro.cli scenario forged-senders --algorithm alg1
	$(PYTHON) -m repro.cli scenario lossy-rounds --algorithm floodset
	$(PYTHON) -m repro.cli sweep --algorithms alg1 okun-crash floodset \
		--sizes 7:2 --seeds 0 1 --model impersonation:k=2 \
		--workers 2 --cache $(MODEL_SMOKE_DIR)/cache
	$(PYTHON) -m repro.cli sweep --algorithms floodset --sizes 7:2 \
		--seeds 0 1 2 3 --model partial-synchrony:rate=0.05,delay=2 \
		--store dir:$(MODEL_SMOKE_DIR)/store --coordinator-only \
		& COORD=$$!; \
	$(PYTHON) -m repro.cli worker \
		--store dir:$(MODEL_SMOKE_DIR)/store --worker-id model-w1 \
		--wait-for-store 60 & W1=$$!; \
	wait $$COORD && wait $$W1
	$(PYTHON) -m repro.cli runs doctor \
		--store dir:$(MODEL_SMOKE_DIR)/store --assert-no-reexecution
	rm -rf $(MODEL_SMOKE_DIR)

## Service smoke: the renaming daemon under real load and a real SIGTERM.
## Starts the daemon on an ephemeral port (the port file is the
## handshake), drives a 1500-session burst at 500 concurrent sessions —
## every completed session's assignment is re-validated client-side
## against check_renaming, so exit 0 is a correctness statement, not just
## liveness — then SIGTERMs the daemon during a second load and asserts
## the drain contract. The second load's sessions carry tokens, so the
## daemon's session journal records each one it admits and runs; the
## SIGTERM waits for the first such record, so it lands with that load in
## flight. Gates: the late load must not observe an invalid certificate
## (exit 2), its report must show at least one completed session, the
## daemon must exit 0 (drained clean) or 4 (sessions shed), never crash,
## its stderr must hold no Traceback, and none of its session worker
## processes may still run 5 s after it exited.
## Shell fragment for the service smokes: waits up to 5 s for every pid in
## $$WORKERS (the daemon's session workers, recorded with pgrep once its
## port file appeared) to exit, and leaves the ones still running in
## $$WORKERS_LEFT. A zombie counts as exited: an orphaned worker stays one
## until whatever adopted it reaps it.
WAIT_FOR_WORKERS = for i in $$(seq 50); do \
		WORKERS_LEFT=$$(for p in $$WORKERS; do \
			ps -o stat= -p $$p | grep -qv '^Z' && echo $$p; done); \
		[ -z "$$WORKERS_LEFT" ] && break; sleep 0.1; done

SERVICE_SMOKE_DIR := .service-smoke
service-smoke:
	rm -rf $(SERVICE_SMOKE_DIR)
	mkdir -p $(SERVICE_SMOKE_DIR)
	$(PYTHON) -m repro.cli serve --port 0 \
		--port-file $(SERVICE_SMOKE_DIR)/port \
		--session-journal $(SERVICE_SMOKE_DIR)/sessions.jsonl \
		--max-sessions 600 --session-deadline 30 --idle-timeout 30 \
		--drain-grace 60 2> $(SERVICE_SMOKE_DIR)/serve.err & SRV=$$!; \
	for i in $$(seq 200); do \
		[ -s $(SERVICE_SMOKE_DIR)/port ] && break; sleep 0.1; done; \
	WORKERS=$$(pgrep -d ' ' -P $$SRV); \
	$(PYTHON) -m repro.cli load --port-file $(SERVICE_SMOKE_DIR)/port \
		--sessions 1500 --concurrency 500 --ids 8 \
		--report $(SERVICE_SMOKE_DIR)/burst.txt; BURST=$$?; \
	$(PYTHON) -m repro.cli load --port-file $(SERVICE_SMOKE_DIR)/port \
		--sessions 600 --concurrency 200 --ids 8 --session-prefix drain \
		--report $(SERVICE_SMOKE_DIR)/drain.txt & LOADGEN=$$!; \
	for i in $$(seq 600); do \
		grep -q accepted $(SERVICE_SMOKE_DIR)/sessions.jsonl && break; \
		sleep 0.05; done; \
	kill -TERM $$SRV; \
	wait $$LOADGEN; DRAINLOAD=$$?; \
	wait $$SRV; SERVE=$$?; \
	$(WAIT_FOR_WORKERS); \
	cat $(SERVICE_SMOKE_DIR)/serve.err >&2; \
	grep -Eq "completed +[1-9]" $(SERVICE_SMOKE_DIR)/drain.txt; DRAINED=$$?; \
	! grep -q Traceback $(SERVICE_SMOKE_DIR)/serve.err; CLEAN=$$?; \
	echo "service-smoke: burst=$$BURST drain-load=$$DRAINLOAD" \
		"serve=$$SERVE drained=$$DRAINED clean-stderr=$$CLEAN" \
		"workers=[$$WORKERS] left=[$$WORKERS_LEFT]"; \
	[ $$BURST -eq 0 ] && [ $$DRAINLOAD -ne 2 ] && \
		{ [ $$SERVE -eq 0 ] || [ $$SERVE -eq 4 ]; } && \
		[ $$DRAINED -eq 0 ] && [ $$CLEAN -eq 0 ] && \
		[ -n "$$WORKERS" ] && [ -z "$$WORKERS_LEFT" ]
	rm -rf $(SERVICE_SMOKE_DIR)

## Crash-recovery end-to-end: a journaled daemon takes a tokened burst
## *through the chaos proxy* (connection resets + mid-frame truncation)
## and is SIGKILLed mid-load by the deterministic crash hook; a torn
## record is glued onto the journal, a fresh daemon restarts on it (and
## must cut the torn tail) and the identical burst is
## re-driven — every token must complete (pre-crash sessions answered
## byte-identically from the journal, interrupted ones re-admitted
## exactly once), a query must answer from the journal, the offline
## `sessions list` reader must accept the journal, `sessions show`
## decode a journaled token's frames, and `explain --session` re-run a
## journaled token to the same frames. Every injected fault
## must surface as a typed client error — the burst may fail sessions
## (exit 3 if the kill landed early) but must never report an invalid
## certificate (exit 2) and must never hang. Neither daemon's session
## workers may still run 5 s after it exited, the SIGKILLed one's included.
RECOVERY_SMOKE_DIR := .recovery-smoke
recovery-smoke:
	rm -rf $(RECOVERY_SMOKE_DIR)
	mkdir -p $(RECOVERY_SMOKE_DIR)
	REPRO_SERVICE_CRASH_AFTER=completed:30 \
	$(PYTHON) -m repro.cli serve --port 0 \
		--port-file $(RECOVERY_SMOKE_DIR)/svc.port \
		--session-journal $(RECOVERY_SMOKE_DIR)/sessions.jsonl \
		--max-sessions 200 --session-deadline 30 --idle-timeout 30 \
		--drain-grace 60 & SRV=$$!; \
	for i in $$(seq 200); do \
		[ -s $(RECOVERY_SMOKE_DIR)/svc.port ] && break; sleep 0.1; done; \
	WORKERS=$$(pgrep -d ' ' -P $$SRV); KILLED_WORKERS=$$WORKERS; \
	$(PYTHON) -m repro.cli proxy \
		--upstream-file $(RECOVERY_SMOKE_DIR)/svc.port \
		--port-file $(RECOVERY_SMOKE_DIR)/proxy.port \
		--reset 0.1 --truncate 0.1 --seed 7 & PRX=$$!; \
	for i in $$(seq 200); do \
		[ -s $(RECOVERY_SMOKE_DIR)/proxy.port ] && break; sleep 0.1; done; \
	$(PYTHON) -m repro.cli load \
		--port-file $(RECOVERY_SMOKE_DIR)/proxy.port \
		--sessions 60 --concurrency 20 --ids 8 --seed 0 \
		--session-prefix rsmoke --retries 2 --timeout 10 \
		--report $(RECOVERY_SMOKE_DIR)/burst.txt; BURST=$$?; \
	wait $$SRV; CRASH=$$?; \
	$(WAIT_FOR_WORKERS); KILLED_LEFT=$$WORKERS_LEFT; \
	rm -f $(RECOVERY_SMOKE_DIR)/svc.port; \
	printf '{"v":1,"seq' >> $(RECOVERY_SMOKE_DIR)/sessions.jsonl; \
	$(PYTHON) -m repro.cli serve --port 0 \
		--port-file $(RECOVERY_SMOKE_DIR)/svc.port \
		--session-journal $(RECOVERY_SMOKE_DIR)/sessions.jsonl \
		--max-sessions 200 --session-deadline 30 --idle-timeout 30 \
		--drain-grace 60 & SRV=$$!; \
	for i in $$(seq 200); do \
		[ -s $(RECOVERY_SMOKE_DIR)/svc.port ] && break; sleep 0.1; done; \
	WORKERS=$$(pgrep -d ' ' -P $$SRV); \
	$(PYTHON) -m repro.cli load \
		--port-file $(RECOVERY_SMOKE_DIR)/svc.port \
		--sessions 60 --concurrency 20 --ids 8 --seed 0 \
		--session-prefix rsmoke --retries 5 --timeout 30 \
		--report $(RECOVERY_SMOKE_DIR)/redrive.txt; REDRIVE=$$?; \
	grep -Eq "completed +60" $(RECOVERY_SMOKE_DIR)/redrive.txt; FULL=$$?; \
	$(PYTHON) -m repro.cli query rsmoke-0 \
		--port-file $(RECOVERY_SMOKE_DIR)/svc.port > /dev/null; QUERY=$$?; \
	kill -TERM $$PRX; wait $$PRX; \
	kill -TERM $$SRV; wait $$SRV; SERVE=$$?; \
	$(WAIT_FOR_WORKERS); \
	$(PYTHON) -m repro.cli sessions list \
		--journal $(RECOVERY_SMOKE_DIR)/sessions.jsonl > /dev/null; LIST=$$?; \
	$(PYTHON) -m repro.cli sessions show rsmoke-0 \
		--journal $(RECOVERY_SMOKE_DIR)/sessions.jsonl > /dev/null; SHOW=$$?; \
	$(PYTHON) -m repro.cli explain \
		--session $(RECOVERY_SMOKE_DIR)/sessions.jsonl#rsmoke-0 \
		> /dev/null; EXPLAIN=$$?; \
	echo "recovery-smoke: burst=$$BURST crash=$$CRASH redrive=$$REDRIVE \
		all-completed=$$FULL query=$$QUERY serve=$$SERVE list=$$LIST \
		show=$$SHOW explain=$$EXPLAIN killed-workers=[$$KILLED_WORKERS] \
		left=[$$KILLED_LEFT] workers=[$$WORKERS] left=[$$WORKERS_LEFT]"; \
	[ $$CRASH -eq 137 ] && [ $$BURST -ne 2 ] && [ $$REDRIVE -eq 0 ] && \
		[ $$FULL -eq 0 ] && [ $$QUERY -eq 0 ] && [ $$SERVE -eq 0 ] && \
		[ $$LIST -eq 0 ] && [ $$SHOW -eq 0 ] && [ $$EXPLAIN -eq 0 ] && \
		[ -n "$$KILLED_WORKERS" ] && [ -z "$$KILLED_LEFT" ] && \
		[ -n "$$WORKERS" ] && [ -z "$$WORKERS_LEFT" ]
	rm -rf $(RECOVERY_SMOKE_DIR)

## Service throughput capture: sessions/sec and p50/p99 session latency
## for burst, sustained, and adversarial scenarios over loopback TCP,
## plus the journal-on vs journal-off durability-cost comparison.
## Rewrites benchmarks/results/service_load.txt.
bench-service:
	$(PYTHON) benchmarks/bench_service_load.py \
		--out benchmarks/results/service_load.txt

## Store throughput capture: claims/sec and streamed rows/sec at 10k
## cells on both backends, plus the bounded-memory proof — a 50k-cell
## streamed aggregation whose peak RSS growth is asserted flat. Rewrites
## benchmarks/results/store_throughput.txt.
bench-store:
	$(PYTHON) benchmarks/bench_store_throughput.py \
		--out benchmarks/results/store_throughput.txt
