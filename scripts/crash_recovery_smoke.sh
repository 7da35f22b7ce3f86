#!/usr/bin/env bash
# Crash-recovery smoke for the durable resident engine (sti serve -data).
#
# Two programs, each run over the same batch stream twice:
#
#   reference   one uninterrupted in-memory session applying every batch,
#               then a query block
#   crashed     a durable session absorbs the first half of the batches and
#               is killed with SIGKILL mid-stream (no graceful close, WAL
#               past the last checkpoint); a restart on the same data
#               directory must recover, absorb the second half, and answer
#               the query block byte-identically to the reference
#
# tc.dl is a symbol-typed transitive closure whose deletions run
# incrementally. asserted.dl has an eqrel input relation and facts applied
# to a derived relation, the relations whose asserted facts are not their
# engine contents; its deletions fall back to a recompute. A third run,
#
#   graceful    a durable HTTP session is sent SIGTERM and must exit 0
#               after checkpointing, with the restart recovering instantly
#
# uses tc.dl. The query block output (rows + counts, "applied epoch" chatter
# stripped) is diffed, so row order matters: recovery must restore symbol
# ordinals exactly. Usage: scripts/crash_recovery_smoke.sh [path-to-sti-binary]
set -euo pipefail

bin=${1:-${STI_BIN:-./bin/sti}}
if [ ! -x "$bin" ]; then
  echo "building $bin" >&2
  go build -o "$bin" ./cmd/sti
fi
bin=$(readlink -f "$bin")

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cd "$work"

cat > tc.dl <<'EOF'
.decl edge(x:symbol, y:symbol)
.decl path(x:symbol, y:symbol)
.input edge
.output path
path(x, y) :- edge(x, y).
path(x, z) :- path(x, y), edge(y, z).
EOF

cat > asserted.dl <<'EOF'
.decl same(x:symbol, y:symbol) eqrel
.decl link(x:symbol, y:symbol)
.decl reach(x:symbol, y:symbol)
.input same
.input link
.output reach
reach(x, y) :- link(x, y).
reach(x, z) :- reach(x, y), same(y, z).
reach(x, z) :- reach(x, y), link(y, z).
EOF

# batch N emits one apply-able batch: a chain link, a cross edge, and from
# the third batch on a deletion of an earlier cross edge (so the stream
# exercises delete propagation on the durable tier too).
batch() {
  local n=$1
  printf '+edge\tn%d\tn%d\n' "$n" $((n + 1))
  printf '+edge\tn%d\tx%d\n' "$n" "$n"
  if [ "$n" -ge 3 ]; then
    printf -- '-edge\tn%d\tx%d\n' $((n - 2)) $((n - 2))
  fi
  printf 'apply\n'
}

queries() {
  printf 'query path\nquery edge\ncount path\ncount edge\n'
}

# asserted_batch N: an eqrel pair, a link, and a fact applied to the derived
# reach; from the third batch on it deletes an earlier pair and an earlier
# applied fact, which falls back to a recompute.
asserted_batch() {
  local n=$1
  printf '+same\tn%d\tm%d\n' "$n" "$n"
  printf '+link\tm%d\tn%d\n' "$n" $((n + 1))
  printf '+reach\ta%d\tn%d\n' "$n" "$n"
  if [ "$n" -ge 3 ]; then
    printf -- '-same\tn%d\tm%d\n' $((n - 2)) $((n - 2))
    printf -- '-reach\ta%d\tn%d\n' $((n - 2)) $((n - 2))
  fi
  printf 'apply\n'
}

asserted_queries() {
  printf 'query reach\nquery same\ncount reach\ncount same\ncount link\n'
}

total=8
half=4

# crash_leg PROGRAM BATCH QUERIES runs the reference and the crashed
# session of one program and diffs their query blocks. It leaves the
# restarted session's output in <program>.crash2.raw.
crash_leg() {
  local prog=$1 batchfn=$2 queriesfn=$3 pid
  local tag=${prog%.dl}
  {
    for i in $(seq 1 $total); do "$batchfn" "$i"; done
    "$queriesfn"
    printf 'quit\n'
  } | "$bin" serve "$prog" > "$tag.ref.raw"
  grep -v '^applied epoch=' "$tag.ref.raw" > "$tag.ref.out"

  mkfifo "$tag.in"
  "$bin" serve "$prog" -data "$tag.data" -snapshot-every 3 < "$tag.in" > "$tag.crash1.raw" 2> "$tag.crash1.log" &
  pid=$!
  exec 3> "$tag.in"
  for i in $(seq 1 $half); do "$batchfn" "$i" >&3; done
  # Wait until every first-half batch is applied (and therefore WAL-logged:
  # the record is appended and flushed to the OS before the engine
  # mutates), then kill hard. snapshot-every=3 guarantees the last
  # checkpoint is stale, so the restart must replay WAL records, not just
  # load a snapshot.
  for _ in $(seq 1 100); do
    [ "$(grep -c '^applied epoch=' "$tag.crash1.raw")" -eq "$half" ] && break
    sleep 0.1
  done
  [ "$(grep -c '^applied epoch=' "$tag.crash1.raw")" -eq "$half" ] || {
    echo "$prog: first-half applies never landed:" >&2; cat "$tag.crash1.raw" "$tag.crash1.log" >&2; exit 1
  }
  kill -9 "$pid"
  wait "$pid" 2>/dev/null || true
  exec 3>&-

  {
    for i in $(seq $((half + 1)) $total); do "$batchfn" "$i"; done
    "$queriesfn"
    printf 'stats\nquit\n'
  } | "$bin" serve "$prog" -data "$tag.data" -snapshot-every 3 > "$tag.crash2.raw" 2> "$tag.crash2.log"
  grep '"recovered":true' "$tag.crash2.raw" > /dev/null || {
    echo "$prog: restart did not report recovery:" >&2; cat "$tag.crash2.raw" "$tag.crash2.log" >&2; exit 1
  }
  grep -v '^applied epoch=\|^{' "$tag.crash2.raw" > "$tag.crash.out"

  if ! diff -u "$tag.ref.out" "$tag.crash.out"; then
    echo "FAIL: $prog: recovered query output differs from the uninterrupted run" >&2
    exit 1
  fi
  echo "crash recovery ($prog): query output byte-identical after kill -9 + restart"
}

crash_leg tc.dl batch queries
crash_leg asserted.dl asserted_batch asserted_queries
grep -q '"applies_fallback":[1-9]' asserted.crash2.raw || {
  echo "asserted.dl: no deletion fell back after the restart:" >&2; cat asserted.crash2.raw >&2; exit 1
}

# --- graceful: SIGTERM checkpoints and exits 0 ---------------------------
rm -rf data2
port=$((RANDOM % 2000 + 18000))
"$bin" serve tc.dl -data data2 -http "127.0.0.1:$port" < /dev/null > grace.raw 2> grace.log &
gpid=$!
for _ in $(seq 1 100); do
  curl -sf "http://127.0.0.1:$port/healthz" > /dev/null 2>&1 && break
  sleep 0.1
done
# batch() ends with the line-protocol "apply" command; HTTP bodies carry
# only the +/- lines.
curl -sf -X POST --data-binary "$(batch 1 | grep -v '^apply$')" \
  "http://127.0.0.1:$port/apply" > /dev/null
kill -TERM "$gpid"
rc=0
wait "$gpid" || rc=$?
[ "$rc" -eq 0 ] || { echo "SIGTERM exit status $rc:" >&2; cat grace.log >&2; exit 1; }
grep -q 'shutdown complete' grace.log || {
  echo "no shutdown record in the log:" >&2; cat grace.log >&2; exit 1
}
# A graceful close checkpointed, so the restart recovers from the snapshot
# with nothing to replay.
printf 'stats\ncount path\nquit\n' | "$bin" serve tc.dl -data data2 > grace2.raw
grep -q '"recovered":true' grace2.raw
grep -q '"recovered_records"' grace2.raw && {
  echo "graceful restart had WAL records to replay:" >&2; cat grace2.raw >&2; exit 1
}
# batch 1 is n1->n2 and n1->x1: two paths.
grep -qx '2' grace2.raw || {
  echo "graceful restart lost the batch:" >&2; cat grace2.raw >&2; exit 1
}
echo "graceful shutdown: SIGTERM checkpointed, exited 0, restart replayed nothing"
