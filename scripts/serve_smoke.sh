#!/bin/sh
# serve-smoke: boot a socket daemon, drive one scripted client session
# (record -> record -> analyze -> compare -> triage -> the same query
# twice -> a bad-config compare -> status -> shutdown), and check the
# per-request telemetry profile the daemon writes on exit: the second
# query takes its event DB from the session's cache (one build, one
# cache hit, no load).
#
#   make serve-smoke                  # local, against the dune build
#   DIFFTRACE="difftrace" sh scripts/serve_smoke.sh   # installed binary
#
# The daemon and the client run concurrently, so DIFFTRACE must be the
# built binary itself, not `dune exec` (whose project lock would make
# the client wait for the daemon to exit).
set -eu

DIFFTRACE=${DIFFTRACE:-"_build/default/bin/difftrace_cli.exe"}
DIR=${SMOKE_DIR:-_build/serve-smoke}
PROFILE=${PROFILE_JSON:-serve-profile.json}

rm -rf "$DIR"
mkdir -p "$DIR"
SOCK="$DIR/daemon.sock"

$DIFFTRACE serve --socket "$SOCK" --state "$DIR/state" \
  --profile-json "$PROFILE" 2> "$DIR/serve.log" &
DAEMON=$!

# one scripted session: archive two runs, re-analyze them from their
# archives (the streaming ingestion path), compare the registered warm
# sets, triage the faulty one
$DIFFTRACE client --socket "$SOCK" --decode \
  -e '{"difftrace-rpc":1,"id":"s1","method":"record","params":{"workload":"oddeven","np":8,"name":"normal","out":"'"$DIR"'/normal"}}' \
  -e '{"difftrace-rpc":1,"id":"s2","method":"record","params":{"workload":"oddeven","np":8,"fault":"swapBug(rank=3,after=4)","name":"faulty","out":"'"$DIR"'/faulty"}}' \
  -e '{"difftrace-rpc":1,"id":"s3","method":"analyze","params":{"normal":{"archive":"'"$DIR"'/normal"},"faulty":{"archive":"'"$DIR"'/faulty"}}}' \
  -e '{"difftrace-rpc":1,"id":"s4","method":"compare","params":{"normal":"normal","faulty":"faulty"}}' \
  -e '{"difftrace-rpc":1,"id":"s5","method":"triage","params":{"subject":"faulty"}}' \
  -e '{"difftrace-rpc":1,"id":"s5a","method":"query","params":{"q":"count MPI_Send","source":{"archive":"'"$DIR"'/normal"}}}' \
  -e '{"difftrace-rpc":1,"id":"s5b","method":"query","params":{"q":"count MPI_Send","source":{"archive":"'"$DIR"'/normal"}}}'

# a bad config is answered with a typed invalid-params error (the
# decoding client exits 1 on it) ...
if $DIFFTRACE client --socket "$SOCK" --decode \
  -e '{"difftrace-rpc":1,"id":"s6","method":"compare","params":{"normal":"normal","faulty":"faulty","config":{"linkage":"bogus"}}}' \
  2> "$DIR/bad-config.err"; then
  echo "serve-smoke: a bad linkage was accepted" >&2
  exit 1
fi
grep -q "invalid-params" "$DIR/bad-config.err" || {
  echo "serve-smoke: bad config not answered with invalid-params:" >&2
  cat "$DIR/bad-config.err" >&2
  exit 1
}

# ... and the daemon keeps serving
$DIFFTRACE client --socket "$SOCK" --decode \
  -e '{"difftrace-rpc":1,"id":"s7","method":"status"}' \
  -e '{"difftrace-rpc":1,"id":"s8","method":"shutdown"}'

wait "$DAEMON"

# the daemon's lifetime profile must show every per-request span and
# the request counters
for needle in rpc.record rpc.analyze rpc.compare rpc.triage rpc.query \
    rpc.status rpc.shutdown rpc.requests; do
  grep -q "$needle" "$PROFILE" || {
    echo "serve-smoke: $needle missing from $PROFILE" >&2
    exit 1
  }
done

# the repeated query built nothing and loaded nothing: its event DB came
# from the daemon's cache
count() { sed -n "s/.*\"$1\",\"value\":\([0-9]*\).*/\1/p" "$PROFILE"; }
builds=$(count eventdb.builds)
hits=$(count eventdb.cache_hits)
loads=$(count eventdb.loads)
if [ "${builds:-0}" -ne 1 ] || [ "${hits:-0}" -ne 1 ] || [ "${loads:-0}" -ne 0 ]; then
  echo "serve-smoke: two equal queries made ${builds:-0} builds, ${hits:-0} cache hits, ${loads:-0} loads (want 1, 1, 0)" >&2
  exit 1
fi
echo "serve-smoke: OK ($PROFILE)"
