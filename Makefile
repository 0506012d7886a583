# Convenience targets mirroring what CI runs (.github/workflows/ci.yml).

.PHONY: all build test bench perf campaign-smoke fuzz-smoke store-smoke serve-smoke query-smoke vdiff-smoke frontend-smoke e2e-gate fmt clean

all: build

build:
	dune build

test:
	dune runtest

# full paper reproduction: every table and figure of the evaluation
bench:
	dune exec bench/main.exe

# the Bechamel micro-benchmarks alone (codec, archive load, NLR,
# lattice, JSM, Myers kernels, linkage, ...), in ns/run
perf:
	dune exec bench/main.exe -- --perf

# the campaign smoke pass: a 2-fault x 3-seed selftest matrix (one
# deadlocking fault, one crashing fault) must complete every cell,
# resume without re-executing, and render its triage report
campaign-smoke:
	dune build @campaign-smoke

# the persistent-store smoke pass: the same compare twice against one
# --store directory under _build/store-smoke; stripped of its profile
# rows the warm report must equal the cold one byte for byte, and the
# warm run must summarize nothing (no nlr.summaries row at all).
# The same compare in sketch mode, cold then warm, must print the same
# bytes, the warm run again without an nlr.summaries row.
# Then store gc at the default caps runs the kind table's eviction over
# the store, and the store must still verify. The archive pass records
# two 8-rank runs and analyzes them cold, then warm, against a fresh
# store: the reports must be the same bytes, and the warm run must
# decode at most two traces (parlot.traces.decoded: the diffNLR trace
# of each run) and verify all 16 without decoding them
# (parlot.traces.verified). Against the same store, two queries (a
# count on the normal run, a diverge against the faulty one) and a
# two-run vdiff of trace 3 (the swapped rank) run cold, then warm:
# each warm answer must equal its cold one, the warm queries must
# decode no trace (no parlot.traces.decoded row; the diverge loads
# both event DBs) and the warm vdiff must decode at most one trace per
# run. CI caches the directory across runs, so once the cache is
# primed even the first compare is
# warm and gc works on a long-lived store; a store cached before JSM
# matrices were retired is rewritten without them on its first flush.
SSA = _build/store-smoke/archives
store-smoke: build
	mkdir -p _build/store-smoke
	_build/default/bin/difftrace_cli.exe compare -w ilcs --np 6 \
	  -f 'swapBug(rank=3,after=5)' --store _build/store-smoke/store \
	  --profile > _build/store-smoke/cold.txt
	_build/default/bin/difftrace_cli.exe compare -w ilcs --np 6 \
	  -f 'swapBug(rank=3,after=5)' --store _build/store-smoke/store \
	  --profile > _build/store-smoke/warm.txt
	grep -v '^[+|]' _build/store-smoke/cold.txt > _build/store-smoke/cold-report.txt
	grep -v '^[+|]' _build/store-smoke/warm.txt > _build/store-smoke/warm-report.txt
	cmp _build/store-smoke/cold-report.txt _build/store-smoke/warm-report.txt
	! grep -q 'nlr.summaries' _build/store-smoke/warm.txt
	_build/default/bin/difftrace_cli.exe compare -w ilcs --np 6 \
	  -f 'swapBug(rank=3,after=5)' --sketch --store _build/store-smoke/store \
	  > _build/store-smoke/sketch-cold.txt
	_build/default/bin/difftrace_cli.exe compare -w ilcs --np 6 \
	  -f 'swapBug(rank=3,after=5)' --sketch --store _build/store-smoke/store \
	  --profile-json _build/store-smoke/sketch-warm.json \
	  > _build/store-smoke/sketch-warm.txt
	cmp _build/store-smoke/sketch-cold.txt _build/store-smoke/sketch-warm.txt
	! grep -q 'nlr.summaries' _build/store-smoke/sketch-warm.json
	_build/default/bin/difftrace_cli.exe store gc -d _build/store-smoke/store
	_build/default/bin/difftrace_cli.exe store verify -d _build/store-smoke/store
	rm -rf $(SSA)
	mkdir -p $(SSA)
	_build/default/bin/difftrace_cli.exe record -w oddeven --np 8 \
	  --out $(SSA)/normal > /dev/null
	_build/default/bin/difftrace_cli.exe record -w oddeven --np 8 \
	  -f 'swapBug(rank=3,after=2)' --out $(SSA)/faulty > /dev/null
	for t in cold warm; do \
	  _build/default/bin/difftrace_cli.exe analyze --normal $(SSA)/normal \
	    --faulty $(SSA)/faulty --store $(SSA)/store \
	    --profile-json $(SSA)/$$t.json > $(SSA)/$$t.txt || exit 1; \
	done
	cmp $(SSA)/cold.txt $(SSA)/warm.txt
	count() { sed -n "s/.*\"$$1\",\"value\":\([0-9]*\).*/\1/p" $(SSA)/warm.json; }; \
	decoded=$$(count parlot.traces.decoded); \
	verified=$$(count parlot.traces.verified); \
	echo "warm archive analyze: $${decoded:-0} decoded, $${verified:-0} verified"; \
	test "$${decoded:-0}" -le 2 && test "$${verified:-0}" -eq 16
	for t in cold warm; do \
	  _build/default/bin/difftrace_cli.exe query 'count MPI_Send' \
	    --archive $(SSA)/normal --store $(SSA)/store \
	    --profile-json $(SSA)/query-count-$$t.json \
	    > $(SSA)/query-$$t.txt || exit 1; \
	  _build/default/bin/difftrace_cli.exe query 'diverge' \
	    --archive $(SSA)/normal --against $(SSA)/faulty --store $(SSA)/store \
	    --profile-json $(SSA)/query-diverge-$$t.json \
	    >> $(SSA)/query-$$t.txt || exit 1; \
	  _build/default/bin/difftrace_cli.exe vdiff -r normal=$(SSA)/normal \
	    -r faulty=$(SSA)/faulty --bad faulty --trace 3 --store $(SSA)/store \
	    --profile-json $(SSA)/vdiff-$$t.json > $(SSA)/vdiff-$$t.txt || exit 1; \
	done
	cmp $(SSA)/query-cold.txt $(SSA)/query-warm.txt
	cmp $(SSA)/vdiff-cold.txt $(SSA)/vdiff-warm.txt
	! grep -q 'parlot.traces.decoded' $(SSA)/query-count-warm.json
	! grep -q 'parlot.traces.decoded' $(SSA)/query-diverge-warm.json
	count() { sed -n "s/.*\"$$1\",\"value\":\([0-9]*\).*/\1/p" $(SSA)/$$2; }; \
	loads=$$(count eventdb.loads query-diverge-warm.json); \
	decoded=$$(count parlot.traces.decoded vdiff-warm.json); \
	echo "warm query: $${loads:-0} event DBs loaded; warm vdiff: $${decoded:-0} decoded"; \
	test "$${loads:-0}" -eq 2 && test "$${decoded:-0}" -le 2

# the serve smoke pass: boot a socket daemon, run one scripted client
# transcript (record -> analyze -> compare -> shutdown), and check the
# per-request rpc.* telemetry profile it writes on exit
serve-smoke: build
	sh scripts/serve_smoke.sh

# the query smoke pass: record two archives, drill into them with the
# event-DB query language, and prove the warm rerun rebuilds no index
query-smoke: build
	sh scripts/query_smoke.sh

# the vdiff smoke pass: a fault x seed selftest matrix through
# campaign run -> report --variational; the minimal discriminating
# condition must name exactly the injected fault axis, and a warm
# rerun must replay the merged alignment out of the store
vdiff-smoke: build
	sh scripts/vdiff_smoke.sh

# the fault-injection corpora on their own, one per on-disk format that
# shares lib/util/framed: deterministic bit flips, truncations, chunk
# deletions and garbage appends against v1/v2 archives (test_archive
# "resilience"), the analysis-store corruption corpus (test_store
# "corruption"), the damaged and hostile event-DB indexes (test_eventdb
# "persistence" 1 and 3), the corrupt campaign manifests (test_campaign
# "resume" 2-3), the framing module itself (test_util "framed") and the
# request-path fuzz (test_fuzz under QCHECK_LONG=1: ten times the
# generated and mutated RPC lines dune runtest sends), all
# through the test/dune fuzz-smoke alias, which runs them in the build's
# test directory where their fixtures resolve (--force: every step runs
# on every call); then the same mutation battery against the ingestion
# frontends through the conformance checker (scripts/frontend_fuzz.sh,
# its log under _build)
fuzz-smoke: build
	dune build @test/fuzz-smoke --force
	FUZZ_LOG=$${FUZZ_LOG:-_build/frontend-fuzz.log} sh scripts/frontend_fuzz.sh

# the frontend smoke pass: compare the checked-in CI-log and strace
# fixtures end to end, each twice against one fresh --store under
# _build/frontend-smoke. The cold and warm reports must be the same
# bytes, and the warm run must load its sources from the store's
# ingest cache (frontend.cache_hits in its profile).
FS = _build/frontend-smoke
CILOG = test/corpus/cilog
STRACE = test/corpus/syscall
frontend-smoke: build
	rm -rf $(FS)
	mkdir -p $(FS)
	_build/default/bin/difftrace_cli.exe compare $(CILOG)/build_pass.log \
	  $(CILOG)/build_fail.log --frontend cilog --store $(FS)/store \
	  > $(FS)/cilog-cold.txt
	_build/default/bin/difftrace_cli.exe compare $(CILOG)/build_pass.log \
	  $(CILOG)/build_fail.log --frontend cilog --store $(FS)/store \
	  --profile-json $(FS)/cilog-warm.json > $(FS)/cilog-warm.txt
	cmp $(FS)/cilog-cold.txt $(FS)/cilog-warm.txt
	grep -q 'frontend.cache_hits' $(FS)/cilog-warm.json
	_build/default/bin/difftrace_cli.exe compare $(STRACE)/normal.strace \
	  $(STRACE)/faulty.strace --frontend syscall --store $(FS)/store \
	  > $(FS)/syscall-cold.txt
	_build/default/bin/difftrace_cli.exe compare $(STRACE)/normal.strace \
	  $(STRACE)/faulty.strace --frontend syscall --store $(FS)/store \
	  --profile-json $(FS)/syscall-warm.json > $(FS)/syscall-warm.txt
	cmp $(FS)/syscall-cold.txt $(FS)/syscall-warm.txt
	grep -q 'frontend.cache_hits' $(FS)/syscall-warm.json

# the end-to-end perf gate: every bench/e2e workload, plain and
# traced, twice for 5 s each at seed 1 (into e2e-ci.json), then judged
# by `run.sh diff` against the newest committed BENCH_<n>.json. Fails
# on a wrong output, a count that differs, or a regressed metric; times
# from a host of another speed come out unresolved, not failed.
e2e-gate:
	bash bench/e2e/run.sh all --seed 1 --seconds 5 --runs 2 --out e2e-ci.json
	bash bench/e2e/run.sh diff \
	  "$$(ls BENCH_*.json | sort -t_ -k2 -n | tail -n 1)" e2e-ci.json

# rewrite sources in place with ocamlformat (advisory in CI; see the
# non-blocking fmt job)
fmt:
	dune fmt

clean:
	dune clean
