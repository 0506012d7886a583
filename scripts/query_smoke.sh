#!/bin/sh
# query-smoke: record two archives, drill into them with the event-DB
# query language, and prove the persisted index makes warm reruns
# rebuild-free (eventdb.loads moves, eventdb.builds must not appear).
#
#   make query-smoke                  # local, against the dune build
#   DIFFTRACE="difftrace" sh scripts/query_smoke.sh   # installed binary
set -eu

DIFFTRACE=${DIFFTRACE:-"_build/default/bin/difftrace_cli.exe"}
DIR=${SMOKE_DIR:-_build/query-smoke}

rm -rf "$DIR"
mkdir -p "$DIR"

$DIFFTRACE record -w oddeven --np 8 --out "$DIR/normal" > /dev/null
$DIFFTRACE record -w oddeven --np 8 -f 'swapBug(rank=3,after=4)' \
  --out "$DIR/faulty" > /dev/null

# the drill-down forms: inventory, count, list, divergence of the runs
$DIFFTRACE query 'threads' --archive "$DIR/normal" | grep -q '^| 3 '
$DIFFTRACE query 'count MPI_Send' --archive "$DIR/normal" \
  | grep -q '^calls of MPI_Send: '
$DIFFTRACE query 'list MPI_Send on 3 limit 2' --archive "$DIR/normal" \
  | grep -q '(showing 2)'
$DIFFTRACE query 'diverge' --archive "$DIR/normal" \
  --against "$DIR/faulty" | grep -q '^first divergence: thread 3 '

# a bad query answers with the grammar and a nonzero exit, no crash
if $DIFFTRACE query 'bogus' --archive "$DIR/normal" 2> "$DIR/err"; then
  echo "query-smoke: bad query did not fail" >&2
  exit 1
fi
grep -q 'queries: count F' "$DIR/err"

# cold query builds and persists the index; the warm rerun must load
# it back and rebuild nothing
$DIFFTRACE query 'count MPI_Send' --archive "$DIR/normal" \
  --store "$DIR/store" --profile > "$DIR/cold"
grep -q 'eventdb.builds' "$DIR/cold"
grep -q 'eventdb.saved' "$DIR/cold"
$DIFFTRACE query 'count MPI_Send' --archive "$DIR/normal" \
  --store "$DIR/store" --profile > "$DIR/warm"
grep -q 'eventdb.loads' "$DIR/warm"
if grep -q 'eventdb.builds' "$DIR/warm"; then
  echo "query-smoke: warm rerun rebuilt the event DB" >&2
  exit 1
fi

echo "query-smoke: OK"
