# Convenience targets mirroring what CI runs (.github/workflows/ci.yml).

.PHONY: all build test bench bench-smoke campaign-smoke fuzz-smoke store-smoke sketch-smoke serve-smoke query-smoke vdiff-smoke frontend-smoke e2e-smoke fmt clean

all: build

build:
	dune build

test:
	dune runtest

# full paper reproduction + trajectory artifact
bench:
	dune exec bench/main.exe -- --json BENCH_OUT.json

# the CI smoke pass: quick engine/memo benches + a parseable artifact
bench-smoke:
	dune build @bench-smoke

# the campaign smoke pass: a 2-fault x 3-seed selftest matrix (one
# deadlocking fault, one crashing fault) must complete every cell,
# resume without re-executing, and render its triage report
campaign-smoke:
	dune build @campaign-smoke

# the persistent-store smoke pass: cold vs. warm disk-backed analysis
# (CI pairs this with an actions/cache of the store directory)
store-smoke:
	dune exec bench/main.exe -- --store --quick

# the sketch-tier smoke pass: MinHash/LSH vs. exact JSM sweep; dies
# unless the sketch tier does <25% of exact's Jaccard evaluations at
# the largest corpus (CI additionally asserts strictly-fewer evals at
# every size off the JSON artifact)
sketch-smoke:
	dune exec bench/main.exe -- --sketch --quick --json sketch-bench-ci.json

# the serve smoke pass: boot a socket daemon, run one scripted client
# transcript (record -> analyze -> compare -> shutdown), and check the
# per-request rpc.* telemetry profile it writes on exit
serve-smoke: build
	sh scripts/serve_smoke.sh

# the query smoke pass: record two archives, drill into them with the
# event-DB query language, prove the warm rerun rebuilds no index, and
# emit the difftrace-bench/1 artifact with the build/load/query timings
query-smoke: build
	sh scripts/query_smoke.sh

# the vdiff smoke pass: a fault x seed selftest matrix through
# campaign run -> report --variational; the minimal discriminating
# condition must name exactly the injected fault axis, and a warm
# rerun must replay the merged alignment out of the store
vdiff-smoke: build
	sh scripts/vdiff_smoke.sh

# the fault-injection corpora on their own: deterministic bit flips,
# truncations, chunk deletions and garbage appends against v1/v2
# archives (see test/test_archive.ml, "resilience" suite), then the
# same mutation battery against the ingestion frontends through the
# conformance checker (scripts/frontend_fuzz.sh)
fuzz-smoke: build
	dune exec test/test_archive.exe -- test resilience
	sh scripts/frontend_fuzz.sh

# the frontend smoke pass: ingest + compare the checked-in CI-log and
# strace fixtures end to end, then the --frontend ingest-throughput
# bench with its difftrace-bench/1 artifact
frontend-smoke: build
	_build/default/bin/difftrace_cli.exe compare \
	  test/corpus/cilog/build_pass.log test/corpus/cilog/build_fail.log \
	  --frontend cilog > /dev/null
	_build/default/bin/difftrace_cli.exe compare \
	  test/corpus/syscall/normal.strace test/corpus/syscall/faulty.strace \
	  --frontend syscall > /dev/null
	dune exec bench/main.exe -- --frontend --quick --json frontend-bench-ci.json

# the end-to-end benchmark smoke pass: each bench/e2e workload for 5 s
# at seed 1 (plain closed loop, no tracing), writing its metrics to
# e2e-<workload>.json; fails when any workload's outputs were wrong
E2E_WORKLOADS = ilcs-wide lulesh-hang oddeven-store daemon-mix

e2e-smoke:
	status=0; \
	for w in $(E2E_WORKLOADS); do \
	  bash bench/e2e/run.sh --workload $$w --seed 1 --seconds 5 --trace 0 \
	    --out e2e-$$w.json || status=1; \
	done; \
	exit $$status

# rewrite sources in place with ocamlformat (advisory in CI; see the
# non-blocking fmt job)
fmt:
	dune fmt

clean:
	dune clean
