#!/usr/bin/env bash
# End-to-end smoke test of the command-line tools: simulate a small run,
# correct it with two methods, cluster a FASTA, round-trip a persistent
# spectrum index through ngs_index and ngs_correct, sanity-check
# outputs, and assert the documented exit codes on every failure path
# (0 success, 2 usage/config, 3 input/parse, 4 index, 1 internal).
set -euo pipefail

BIN_DIR="$1"
# Second argument `service` runs only the correction-service scenario
# (the ctest `service` label, so the asan preset can drive the daemon
# paths without the full smoke).
MODE="${2:-all}"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

# expect_exit <code> <cmd...>: the command must fail with exactly <code>;
# stderr is captured to $WORK/stderr.txt for message assertions.
expect_exit() {
  local want="$1"
  shift
  local got=0
  "$@" >/dev/null 2>"$WORK/stderr.txt" || got=$?
  if [ "$got" != "$want" ]; then
    echo "expected exit $want, got $got from: $*" >&2
    cat "$WORK/stderr.txt" >&2
    exit 1
  fi
  # Every failure path must say something on stderr.
  test -s "$WORK/stderr.txt"
}

# expect_usage <text> <cmd...>: a usage error (exit 2) naming <text>.
expect_usage() {
  local text="$1"
  shift
  expect_exit 2 "$@"
  grep -qF -- "$text" "$WORK/stderr.txt"
}

# expect_unwritable <code> <target> <cmd...>: the command fails with
# <code> naming <target>, not its temp file, prints no "wrote" line and
# leaves no file at <target>.
expect_unwritable() {
  local want="$1" target="$2"
  shift 2
  expect_exit "$want" "$@"
  grep -qF -- "$target" "$WORK/stderr.txt"
  if grep -qF -- "$target.tmp." "$WORK/stderr.txt" ||
     grep -q "^wrote" "$WORK/stderr.txt"; then
    echo "unwritable $target: temp path or wrote line in:" >&2
    cat "$WORK/stderr.txt" >&2
    exit 1
  fi
  test ! -e "$target"
}

"$BIN_DIR/ngs_simulate" \
  --genome-length 20000 --coverage 30 --error-rate 0.01 --seed 7 \
  --reads "$WORK/reads.fastq" --genome "$WORK/genome.fasta" \
  --truth "$WORK/truth.tsv"
test -s "$WORK/reads.fastq"
test -s "$WORK/genome.fasta"
test -s "$WORK/truth.tsv"

# --- correction service: daemon + client round trips -------------------
# Byte-identity through the daemon for a streaming (sap) and a buffered
# (reptile) method at 1, 2, and 4 worker threads; SIGHUP hot reload and
# the RELOAD verb bump the epoch without dropping the daemon; clean
# SIGTERM shutdown exits 0; daemon and client failure paths carry the
# documented exit codes. Requires $WORK/corrected_sap.fastq,
# $WORK/corrected_reptile.fastq, and $WORK/sap.ngsx.
service_scenario() {
  local sock="$WORK/ngs.sock"

  for t in 1 2 4; do
    # Drop the previous daemon's log first: the background shell below
    # truncates it only when it gets scheduled, and the readiness loop
    # must not find the old "listening on" line in the meantime.
    rm -f "$WORK/daemon.log"
    "$BIN_DIR/ngs_correctd" --socket "$sock" --index "$WORK/sap.ngsx" \
      --reads "$WORK/reads.fastq" --threads "$t" \
      > "$WORK/daemon.log" 2>&1 &
    local daemon=$!
    # Readiness: the daemon prints its listening line once serving.
    for _ in $(seq 1 100); do
      grep -q "listening on" "$WORK/daemon.log" 2>/dev/null && break
      sleep 0.1
    done
    grep -q "listening on" "$WORK/daemon.log"

    # Served output is byte-identical to the offline runs.
    "$BIN_DIR/ngs_correct_client" --socket "$sock" \
      --in "$WORK/reads.fastq" --out "$WORK/svc_sap_$t.fastq" \
      --method sap --genome-length 20000 2>/dev/null
    cmp "$WORK/svc_sap_$t.fastq" "$WORK/corrected_sap.fastq"
    "$BIN_DIR/ngs_correct_client" --socket "$sock" \
      --in "$WORK/reads.fastq" --out "$WORK/svc_reptile_$t.fastq" \
      --method reptile --genome-length 20000 2>/dev/null
    cmp "$WORK/svc_reptile_$t.fastq" "$WORK/corrected_reptile.fastq"

    if [ "$t" = 2 ]; then
      "$BIN_DIR/ngs_correct_client" --socket "$sock" --mode stats \
        > "$WORK/svc_stats.txt"
      grep -q "^epoch=1$" "$WORK/svc_stats.txt"
      grep -q "^reads_corrected=" "$WORK/svc_stats.txt"

      # SIGHUP re-verifies and hot-swaps the indexes: epoch 1 -> 2.
      kill -HUP "$daemon"
      for _ in $(seq 1 100); do
        "$BIN_DIR/ngs_correct_client" --socket "$sock" --mode stats \
          > "$WORK/svc_stats.txt" 2>/dev/null || true
        grep -q "^epoch=2$" "$WORK/svc_stats.txt" && break
        sleep 0.1
      done
      grep -q "^epoch=2$" "$WORK/svc_stats.txt"
      # The RELOAD verb does the same inline: epoch 2 -> 3.
      "$BIN_DIR/ngs_correct_client" --socket "$sock" --mode reload \
        | grep -q "epoch 3"
      # Corrected bytes are unchanged across reloads (same index files).
      "$BIN_DIR/ngs_correct_client" --socket "$sock" \
        --in "$WORK/reads.fastq" --out "$WORK/svc_reload.fastq" \
        --method sap --genome-length 20000 2>/dev/null
      cmp "$WORK/svc_reload.fastq" "$WORK/corrected_sap.fastq"

      # Client failure paths: missing --socket -> 2, bad --mode -> 2,
      # daemon not running -> 3, method the daemon rejects -> 2.
      expect_usage "--socket is required" "$BIN_DIR/ngs_correct_client" \
        --mode stats
      expect_exit 2 "$BIN_DIR/ngs_correct_client" --socket "$sock" \
        --mode sideways
      expect_exit 3 "$BIN_DIR/ngs_correct_client" \
        --socket "$WORK/no-such.sock" --mode stats
      grep -q "running" "$WORK/stderr.txt"
      expect_exit 2 "$BIN_DIR/ngs_correct_client" --socket "$sock" \
        --in "$WORK/reads.fastq" --out "$WORK/x.fastq" --method bogus
      # Correct mode needs --in; a missing input -> 3; an unwritable
      # output -> 3, naming the target and leaving nothing behind.
      expect_usage "--in is required" "$BIN_DIR/ngs_correct_client" \
        --socket "$sock" --out "$WORK/x.fastq"
      expect_exit 3 "$BIN_DIR/ngs_correct_client" --socket "$sock" \
        --in "$WORK/nonexistent.fastq" --out "$WORK/x.fastq" --method sap \
        --genome-length 20000
      grep -q "nonexistent.fastq" "$WORK/stderr.txt"
      test ! -e "$WORK/x.fastq"
      expect_unwritable 3 "$WORK/nodir/x.fastq" \
        "$BIN_DIR/ngs_correct_client" --socket "$sock" \
        --in "$WORK/reads.fastq" --out "$WORK/nodir/x.fastq" --method sap \
        --genome-length 20000
    fi

    # Clean shutdown on SIGTERM: exit 0, socket file removed.
    kill -TERM "$daemon"
    local code=0
    wait "$daemon" || code=$?
    [ "$code" = 0 ]
    test ! -e "$sock"
  done

  # Daemon startup failures: missing index file -> 4, missing reads
  # -> 3, a declared k that contradicts the file header -> 2, a declared
  # k past 32 bits (which would wrap to the file's k = 12) or past 64
  # bits -> 2, nothing to serve -> 2.
  expect_exit 4 "$BIN_DIR/ngs_correctd" --socket "$sock" \
    --index "$WORK/nonexistent.ngsx"
  grep -q "nonexistent.ngsx" "$WORK/stderr.txt"
  expect_exit 3 "$BIN_DIR/ngs_correctd" --socket "$sock" \
    --reads "$WORK/nonexistent.fastq"
  grep -q "nonexistent.fastq" "$WORK/stderr.txt"
  expect_exit 2 "$BIN_DIR/ngs_correctd" --socket "$sock" \
    --index "9=$WORK/sap.ngsx"
  for declared in 4294967308 99999999999999999999; do
    expect_exit 2 "$BIN_DIR/ngs_correctd" --socket "$sock" \
      --index "$declared=$WORK/sap.ngsx"
    grep -q -- "--index" "$WORK/stderr.txt"
  done
  expect_exit 2 "$BIN_DIR/ngs_correctd" --socket "$sock"
  test ! -e "$sock"
}

if [ "$MODE" = "service" ]; then
  # Standalone service run: produce just the offline references and the
  # spectrum index the daemon serves, then drive the scenario.
  "$BIN_DIR/ngs_correct" --in "$WORK/reads.fastq" \
    --out "$WORK/corrected_sap.fastq" --method sap --genome-length 20000 \
    --threads 2 --batch-size 1000 --save-index "$WORK/sap.ngsx"
  "$BIN_DIR/ngs_correct" --in "$WORK/reads.fastq" \
    --out "$WORK/corrected_reptile.fastq" --method reptile \
    --genome-length 20000 --threads 2 --batch-size 1000
  service_scenario
  echo "service smoke test passed"
  exit 0
fi

# Round-trip every method the registry advertises.
methods=$("$BIN_DIR/ngs_correct" --method list | awk '{print $1}')
[ -n "$methods" ]
echo "$methods" | grep -qx reptile
in_lines=$(wc -l < "$WORK/reads.fastq")
for method in $methods; do
  "$BIN_DIR/ngs_correct" --in "$WORK/reads.fastq" \
    --out "$WORK/corrected_$method.fastq" \
    --method "$method" --genome-length 20000 \
    --threads 2 --batch-size 1000
  test -s "$WORK/corrected_$method.fastq"
  # Same number of records in and out.
  out_lines=$(wc -l < "$WORK/corrected_$method.fastq")
  [ "$in_lines" = "$out_lines" ]
done

# Reptile's phase 1 counts on the pass workers: output on reads with N's
# is byte-identical at 1, 2 and 4 threads, converts some N's, and
# reports the parameters it chose.
"$BIN_DIR/ngs_simulate" \
  --genome-length 20000 --coverage 30 --error-rate 0.01 --seed 9 \
  --ambiguous-rate 0.003 --reads "$WORK/ambiguous.fastq" \
  --genome "$WORK/ambiguous_genome.fasta"
for t in 1 2 4; do
  "$BIN_DIR/ngs_correct" --in "$WORK/ambiguous.fastq" \
    --out "$WORK/ambiguous_$t.fastq" --method reptile \
    --genome-length 20000 --threads "$t" 2>"$WORK/ambiguous_$t.txt"
done
cmp "$WORK/ambiguous_1.fastq" "$WORK/ambiguous_2.fastq"
cmp "$WORK/ambiguous_1.fastq" "$WORK/ambiguous_4.fastq"
grep -q "ambiguous_converted=[1-9]" "$WORK/ambiguous_1.txt"
grep -q "reptile_params=k:10,tile:20," "$WORK/ambiguous_1.txt"

# SAP on the same reads: byte-identical at 1, 2 and 4 threads (each
# worker reuses its own scratch), and substituting an N can make its
# windows solid, so the output holds fewer N's than the input.
for t in 1 2 4; do
  "$BIN_DIR/ngs_correct" --in "$WORK/ambiguous.fastq" \
    --out "$WORK/ambiguous_sap_$t.fastq" --method sap \
    --genome-length 20000 --threads "$t" 2>/dev/null
done
cmp "$WORK/ambiguous_sap_1.fastq" "$WORK/ambiguous_sap_2.fastq"
cmp "$WORK/ambiguous_sap_1.fastq" "$WORK/ambiguous_sap_4.fastq"
count_n() { awk 'NR % 4 == 2' "$1" | tr -cd 'N' | wc -c; }
[ "$(count_n "$WORK/ambiguous_sap_1.fastq")" -lt \
  "$(count_n "$WORK/ambiguous.fastq")" ]

# Cluster the simulated reads as FASTA (exercises the FASTA path).
head -4000 "$WORK/reads.fastq" | awk 'NR%4==1{sub(/^@/,">");print} NR%4==2{print}' \
  > "$WORK/reads.fasta"
"$BIN_DIR/ngs_cluster" --in "$WORK/reads.fasta" --thresholds 0.9 \
  --out "$WORK/clusters.tsv"
test -s "$WORK/clusters.tsv"
# Header plus one row per sequence.
rows=$(($(wc -l < "$WORK/clusters.tsv") - 1))
seqs=$(grep -c '^>' "$WORK/reads.fasta")
[ "$rows" = "$seqs" ]

# One failure contract for all six tools (fault::run_tool). An unknown
# flag and a missing required flag are usage errors (exit 2) naming the
# flag (ngs-correct-client's required flags: service_scenario).
for cmd in ngs_simulate ngs_correct ngs_cluster "ngs_index build" \
    "ngs_index info" "ngs_index verify" ngs_correctd ngs_correct_client; do
  read -ra argv <<< "$cmd"
  expect_usage "--bogus" "$BIN_DIR/${argv[0]}" "${argv[@]:1}" --bogus
done
# No tool takes a bare argument: a single-dash typo of a flag or a stray
# word is a usage error naming it, not silently dropped. ngs-index reads
# only the arguments after its subcommand.
expect_usage "unexpected argument: -seed" "$BIN_DIR/ngs_simulate" \
  --genome-length 2000 --coverage 5 -seed 5 --reads "$WORK/x.fastq" \
  --genome "$WORK/x.fasta" --truth "$WORK/x.tsv"
expect_usage "unexpected argument: stray" "$BIN_DIR/ngs_correct" \
  --in "$WORK/reads.fastq" --out "$WORK/x.fastq" --method sap stray
expect_usage "unexpected argument: stray" "$BIN_DIR/ngs_index" build \
  --in "$WORK/reads.fastq" --out "$WORK/x.ngsx" stray
for help in help --help; do
  "$BIN_DIR/ngs_index" "$help" | grep -q "ngs-index <build|info|verify>"
done
expect_usage "--in is required" "$BIN_DIR/ngs_correct" --method sap
expect_usage "--in is required" "$BIN_DIR/ngs_cluster"
expect_usage "--in is required" "$BIN_DIR/ngs_index" build \
  --out "$WORK/x.ngsx"
expect_usage "--out is required" "$BIN_DIR/ngs_index" build \
  --in "$WORK/reads.fastq"
for sub in info verify; do
  expect_usage "--index is required" "$BIN_DIR/ngs_index" "$sub"
done
expect_usage "--socket is required" "$BIN_DIR/ngs_correctd" \
  --reads "$WORK/reads.fastq"
# A missing input is an I/O error (exit 3), a missing index an index
# error (exit 4), each naming the path.
expect_exit 3 "$BIN_DIR/ngs_correct" --in "$WORK/nonexistent.fastq" \
  --out "$WORK/x.fastq" --method sap
grep -q "nonexistent.fastq" "$WORK/stderr.txt"
expect_exit 3 "$BIN_DIR/ngs_cluster" --in "$WORK/nonexistent.fasta" \
  --out "$WORK/x.tsv"
grep -q "nonexistent.fasta" "$WORK/stderr.txt"
expect_exit 3 "$BIN_DIR/ngs_index" build --in "$WORK/nonexistent.fastq" \
  --out "$WORK/x.ngsx"
grep -q "nonexistent.fastq" "$WORK/stderr.txt"
for sub in info verify; do
  expect_exit 4 "$BIN_DIR/ngs_index" "$sub" --index "$WORK/nonexistent.ngsx"
  grep -q "nonexistent.ngsx" "$WORK/stderr.txt"
done
# An output in a missing directory is an I/O error (exit 3; 4 for an
# index file) naming the target, and the failed run leaves none of its
# outputs behind.
expect_unwritable 3 "$WORK/nodir/x.fastq" "$BIN_DIR/ngs_correct" \
  --in "$WORK/reads.fastq" --out "$WORK/nodir/x.fastq" --method sap \
  --genome-length 20000
expect_unwritable 4 "$WORK/nodir/x.ngsx" "$BIN_DIR/ngs_correct" \
  --in "$WORK/reads.fastq" --out "$WORK/x.fastq" --method sap \
  --genome-length 20000 --save-index "$WORK/nodir/x.ngsx"
expect_unwritable 4 "$WORK/nodir/x.ngsx" "$BIN_DIR/ngs_index" build \
  --in "$WORK/reads.fastq" --out "$WORK/nodir/x.ngsx"
expect_unwritable 3 "$WORK/nodir/x.tsv" "$BIN_DIR/ngs_cluster" \
  --in "$WORK/reads.fasta" --thresholds 0.9 --out "$WORK/nodir/x.tsv"
for output in reads genome truth; do
  expect_unwritable 3 "$WORK/nodir/x.out" "$BIN_DIR/ngs_simulate" \
    --genome-length 1000 --reads "$WORK/x.fastq" --genome "$WORK/x.fasta" \
    --truth "$WORK/x.tsv" --"$output" "$WORK/nodir/x.out"
done
test ! -e "$WORK/nodir"
for f in x.fastq x.ngsx x.tsv x.fasta; do test ! -e "$WORK/$f"; done

# Failure paths carry distinct exit codes and stderr messages.
# Usage/config errors -> 2.
expect_exit 2 "$BIN_DIR/ngs_correct" --in "$WORK/reads.fastq" --method bogus
expect_exit 2 "$BIN_DIR/ngs_correct" --in "$WORK/reads.fastq" \
  --out "$WORK/x.fastq" --method sap --on-bad-record sometimes
expect_exit 2 "$BIN_DIR/ngs_correct" --in "$WORK/reads.fastq" \
  --out "$WORK/x.fastq" --method sap --fault-spec "no.such.site=always"
grep -q "no.such.site" "$WORK/stderr.txt"
# Trigger numbers and the seed are parsed whole: a count that would wrap,
# NaN and a negative seed are config errors, not a trigger that never
# fires.
for spec in "io.fastq.read=n-1" "io.fastq.read=pnan" "seed=-5"; do
  expect_exit 2 "$BIN_DIR/ngs_correct" --in "$WORK/reads.fastq" \
    --out "$WORK/x.fastq" --method sap --fault-spec "$spec"
  grep -q "fault spec" "$WORK/stderr.txt"
done
# A memory budget bounds a spectrum build; a method without one rejects
# the flag, naming it, instead of running past the budget.
for m in reptile shrec freclu hybrid; do
  expect_exit 2 "$BIN_DIR/ngs_correct" --in "$WORK/reads.fastq" \
    --out "$WORK/x.fastq" --method "$m" --genome-length 20000 \
    --memory-budget-mb 4
  grep -q -- "--memory-budget-mb" "$WORK/stderr.txt"
done

# A tile longer than 32 bases (2k - l = 34) is a config error, raised
# before phase 1 counts anything, naming k, l and the tile length.
expect_exit 2 "$BIN_DIR/ngs_correct" --in "$WORK/reads.fastq" \
  --out "$WORK/x.fastq" --method reptile --genome-length 20000 --k 17
grep -q "tile length 2k - l = 34" "$WORK/stderr.txt"

# A k whose spectrum does not fit a 64-bit code is a config error: --k
# above 32, hitec's (k+1)-mer witnesses at k = 32, and a value that
# would wrap to a valid int.
expect_exit 2 "$BIN_DIR/ngs_correct" --in "$WORK/reads.fastq" \
  --out "$WORK/x.fastq" --method sap --k 33
grep -q -- "--k" "$WORK/stderr.txt"
expect_exit 2 "$BIN_DIR/ngs_correct" --in "$WORK/reads.fastq" \
  --out "$WORK/x.fastq" --method hitec --k 32
grep -q "hitec: k=32" "$WORK/stderr.txt"
expect_exit 2 "$BIN_DIR/ngs_correct" --in "$WORK/reads.fastq" \
  --out "$WORK/x.fastq" --method sap --k 4294967308
grep -q -- "--k" "$WORK/stderr.txt"
expect_exit 2 "$BIN_DIR/ngs_index" build --in "$WORK/reads.fastq" \
  --out "$WORK/x.ngsx" --k 4294967308
# An error rate must be a number in [0, 1]: text, a negative rate and
# NaN are config errors, not a run at some other rate.
for rate in abc -1 nan; do
  expect_exit 2 "$BIN_DIR/ngs_correct" --in "$WORK/reads.fastq" \
    --out "$WORK/x.fastq" --method redeem --error-rate "$rate"
  grep -q -- "--error-rate" "$WORK/stderr.txt"
done
# Integer and list flags are parsed whole: text, a k outside [1, 32], a
# threshold outside [0, 1], a seed that is no unsigned integer and a
# strand switch other than 0 or 1 are config errors naming the flag, not
# a run at k = 0, threshold 0 or seed 0.
expect_exit 2 "$BIN_DIR/ngs_cluster" --in "$WORK/reads.fasta" \
  --out "$WORK/x.tsv" --k abc --thresholds abc,-3
grep -q -- "--k" "$WORK/stderr.txt"
expect_exit 2 "$BIN_DIR/ngs_cluster" --in "$WORK/reads.fasta" \
  --out "$WORK/x.tsv" --k 33
for thresholds in abc 0.9,-3 1.5; do
  expect_exit 2 "$BIN_DIR/ngs_cluster" --in "$WORK/reads.fasta" \
    --out "$WORK/x.tsv" --thresholds "$thresholds"
  grep -q -- "--thresholds" "$WORK/stderr.txt"
done
for seed in abc -1; do
  expect_exit 2 "$BIN_DIR/ngs_simulate" --genome-length 1000 --seed "$seed" \
    --reads "$WORK/x.fastq" --genome "$WORK/x.fasta"
  grep -q -- "--seed" "$WORK/stderr.txt"
done
expect_exit 2 "$BIN_DIR/ngs_index" build --in "$WORK/reads.fastq" \
  --out "$WORK/x.ngsx" --both-strands 2
grep -q -- "--both-strands" "$WORK/stderr.txt"
test ! -e "$WORK/x.tsv"
test ! -e "$WORK/x.fasta"
test ! -e "$WORK/x.fastq"
test ! -e "$WORK/x.ngsx"

# ngs-simulate's impossible shapes are config errors naming the flag:
# reads longer than the genome, repeat content past its length.
expect_exit 2 "$BIN_DIR/ngs_simulate" --genome-length 30 --read-length 36 \
  --reads "$WORK/x.fastq" --genome "$WORK/x.fasta"
grep -q -- "--read-length" "$WORK/stderr.txt"
expect_exit 2 "$BIN_DIR/ngs_simulate" --genome-length 1000 \
  --repeat-length 300 --repeat-copies 4 \
  --reads "$WORK/x.fastq" --genome "$WORK/x.fasta"
grep -q -- "--repeat-length" "$WORK/stderr.txt"

# Malformed input: fail mode -> 3 with a located parse error; skip mode
# drops the bad record and succeeds.
{
  head -8 "$WORK/reads.fastq"
  printf '@broken\nACGT\nIIII\n'   # no '+' separator
  sed -n '9,16p' "$WORK/reads.fastq"
} > "$WORK/malformed.fastq"
expect_exit 3 "$BIN_DIR/ngs_correct" --in "$WORK/malformed.fastq" \
  --out "$WORK/x.fastq" --method sap
grep -q "record 3" "$WORK/stderr.txt"
grep -q "line" "$WORK/stderr.txt"
"$BIN_DIR/ngs_correct" --in "$WORK/malformed.fastq" \
  --out "$WORK/skipped.fastq" --method sap --genome-length 20000 \
  --on-bad-record skip 2>"$WORK/stderr.txt"
grep -q "malformed records skipped" "$WORK/stderr.txt"
test -s "$WORK/skipped.fastq"

# Injected faults drive the same paths: a hard open fault -> 3, an
# absorbed pass-2 fault -> 0 with byte-identical output.
expect_exit 3 "$BIN_DIR/ngs_correct" --in "$WORK/reads.fastq" \
  --out "$WORK/x.fastq" --method sap --fault-spec "io.fastq.open=always"
"$BIN_DIR/ngs_correct" --in "$WORK/reads.fastq" \
  --out "$WORK/salvaged.fastq" --method sap --genome-length 20000 \
  --threads 2 --batch-size 1000 \
  --fault-spec "core.pass2.batch=n1" 2>"$WORK/stderr.txt"
grep -q "fault injection:" "$WORK/stderr.txt"
cmp "$WORK/salvaged.fastq" "$WORK/corrected_sap.fastq"

# Streaming executor: a default run reports its pass-2 stage
# telemetry, and a reader-task fault tears the pipeline down with the
# I/O exit code.
"$BIN_DIR/ngs_correct" --in "$WORK/reads.fastq" \
  --out "$WORK/corrected_default.fastq" --method sap --genome-length 20000 \
  2>"$WORK/stderr.txt"
cmp "$WORK/corrected_default.fastq" "$WORK/corrected_sap.fastq"
grep -q "worker utilization" "$WORK/stderr.txt"
expect_exit 3 "$BIN_DIR/ngs_correct" --in "$WORK/reads.fastq" \
  --out "$WORK/x.fastq" --method sap \
  --fault-spec "core.pipeline.reader=n1"
grep -q "core.pipeline.reader" "$WORK/stderr.txt"
test ! -e "$WORK/x.fastq"

# Numeric flags are strict: negative, zero-where-meaningless and
# non-numeric values are config errors naming the flag.
expect_exit 2 "$BIN_DIR/ngs_correct" --in "$WORK/reads.fastq" \
  --out "$WORK/x.fastq" --method sap --threads -1
grep -q -- "--threads" "$WORK/stderr.txt"
expect_exit 2 "$BIN_DIR/ngs_correct" --in "$WORK/reads.fastq" \
  --out "$WORK/x.fastq" --method sap --memory-budget-mb -1
grep -q -- "--memory-budget-mb" "$WORK/stderr.txt"
expect_exit 2 "$BIN_DIR/ngs_index" build --in "$WORK/reads.fastq" \
  --out "$WORK/x.ngsx" --threads -1
expect_exit 2 "$BIN_DIR/ngs_index" build --in "$WORK/reads.fastq" \
  --out "$WORK/x.ngsx" --batch-size 0
grep -q -- "--batch-size" "$WORK/stderr.txt"
test ! -e "$WORK/x.ngsx"

# NGS_FAULT_SPEC environment variable is honored too.
expect_exit 3 env NGS_FAULT_SPEC="io.fastq.open=always" \
  "$BIN_DIR/ngs_correct" --in "$WORK/reads.fastq" \
  --out "$WORK/x.fastq" --method sap

# Persistent spectrum index: build/info/verify round-trip.
"$BIN_DIR/ngs_index" build --in "$WORK/reads.fastq" \
  --out "$WORK/spectrum.ngsx" --k 12 --both-strands 1 --threads 2
test -s "$WORK/spectrum.ngsx"
"$BIN_DIR/ngs_index" info --index "$WORK/spectrum.ngsx" \
  | grep -q "k: 12"
"$BIN_DIR/ngs_index" verify --index "$WORK/spectrum.ngsx"
# Machine-readable variant for scripting/monitoring.
"$BIN_DIR/ngs_index" info --index "$WORK/spectrum.ngsx" --json \
  > "$WORK/info.json"
grep -q '"k": 12' "$WORK/info.json"
grep -q '"checksum": "0x' "$WORK/info.json"
grep -q '"sections": \[' "$WORK/info.json"

# A corrupted copy must fail verification with the index exit code (and
# only verification hits the payload pages, so flip a byte deep inside
# the file).
cp "$WORK/spectrum.ngsx" "$WORK/corrupt.ngsx"
printf '\xff' | dd of="$WORK/corrupt.ngsx" bs=1 seek=300 count=1 \
  conv=notrunc status=none
expect_exit 4 "$BIN_DIR/ngs_index" verify --index "$WORK/corrupt.ngsx"

# Index failure paths: unknown or missing subcommand -> 2, a corrupt
# index behind ngs-correct --load-index -> 4.
expect_exit 2 "$BIN_DIR/ngs_index" frobnicate
expect_exit 2 "$BIN_DIR/ngs_index"
expect_exit 2 "$BIN_DIR/ngs_index" build --in "$WORK/reads.fastq" \
  --out "$WORK/bad_k.ngsx" --k 99
# Structural corruption (truncation) is caught even by the lazy
# non-verifying load behind --load-index.
head -c 100 "$WORK/spectrum.ngsx" > "$WORK/truncated.ngsx"
expect_exit 4 "$BIN_DIR/ngs_correct" --in "$WORK/reads.fastq" \
  --out "$WORK/x.fastq" --method sap --load-index "$WORK/truncated.ngsx"

# Build-once/correct-many: --save-index then --load-index must produce
# byte-identical corrected output (sap uses the k=12 spectrum).
"$BIN_DIR/ngs_correct" --in "$WORK/reads.fastq" \
  --out "$WORK/corrected_saved.fastq" --method sap --genome-length 20000 \
  --threads 2 --batch-size 1000 --save-index "$WORK/sap.ngsx"
test -s "$WORK/sap.ngsx"
"$BIN_DIR/ngs_index" verify --index "$WORK/sap.ngsx"
"$BIN_DIR/ngs_correct" --in "$WORK/reads.fastq" \
  --out "$WORK/corrected_loaded.fastq" --method sap --genome-length 20000 \
  --threads 2 --batch-size 1000 --load-index "$WORK/sap.ngsx"
cmp "$WORK/corrected_saved.fastq" "$WORK/corrected_loaded.fastq"
cmp "$WORK/corrected_saved.fastq" "$WORK/corrected_sap.fastq"
# ngs-index build and ngs-correct --save-index share one spectrum step,
# so the same reads give the same version-1 bytes.
cmp "$WORK/spectrum.ngsx" "$WORK/sap.ngsx"

# Out-of-core build: a 1 MiB budget forces the k=12 spectrum (~800k
# instances) through the spill path. The spill bins stream into the
# same version-1 bytes the unbudgeted build wrote, which must verify and
# serve byte-identical correction through --load-index.
"$BIN_DIR/ngs_index" build --in "$WORK/reads.fastq" \
  --out "$WORK/sharded.ngsx" --k 12 --both-strands 1 --threads 2 \
  --memory-budget-mb 1 --spill-dir "$WORK" 2>"$WORK/stderr.txt"
grep -q "spill bins" "$WORK/stderr.txt"
cmp "$WORK/sharded.ngsx" "$WORK/spectrum.ngsx"
"$BIN_DIR/ngs_index" verify --index "$WORK/sharded.ngsx"
"$BIN_DIR/ngs_index" info --index "$WORK/sharded.ngsx" \
  > "$WORK/sharded_info.txt"
grep -q "format_version: 1" "$WORK/sharded_info.txt"
"$BIN_DIR/ngs_correct" --in "$WORK/reads.fastq" \
  --out "$WORK/corrected_sharded.fastq" --method sap --genome-length 20000 \
  --threads 2 --batch-size 1000 --load-index "$WORK/sharded.ngsx"
cmp "$WORK/corrected_sharded.fastq" "$WORK/corrected_sap.fastq"

# Pass 1 counts on --threads workers, each on its own lane, and under a
# budget each worker spills its own lane: the index bytes are the same
# at 1, 2 and 4 threads, with and without the 1 MiB budget.
for t in 1 2 4; do
  "$BIN_DIR/ngs_index" build --in "$WORK/reads.fastq" \
    --out "$WORK/lanes_$t.ngsx" --k 12 --both-strands 1 --threads "$t"
  "$BIN_DIR/ngs_index" build --in "$WORK/reads.fastq" \
    --out "$WORK/lanes_${t}_budget.ngsx" --k 12 --both-strands 1 \
    --threads "$t" --memory-budget-mb 1 --spill-dir "$WORK" 2>/dev/null
  cmp "$WORK/lanes_$t.ngsx" "$WORK/spectrum.ngsx"
  cmp "$WORK/lanes_${t}_budget.ngsx" "$WORK/spectrum.ngsx"
done

# A truncated budget-built file is rejected with the index exit code.
head -c 4096 "$WORK/sharded.ngsx" > "$WORK/sharded_trunc.ngsx"
expect_exit 4 "$BIN_DIR/ngs_index" verify --index "$WORK/sharded_trunc.ngsx"

# One read longer than the budget's instance buffer: the buffer spills
# mid-read, so the tracked peak stays under 1 MiB and the file matches
# the unbudgeted build byte for byte.
awk 'BEGIN {
  srand(11)
  printf "@long\n"
  for (i = 0; i < 100000; ++i) printf "%s", substr("ACGT", int(rand() * 4) + 1, 1)
  printf "\n+\n"
  for (i = 0; i < 100000; ++i) printf "I"
  printf "\n"
}' > "$WORK/long.fastq"
"$BIN_DIR/ngs_index" build --in "$WORK/long.fastq" \
  --out "$WORK/long.ngsx" --k 12 --both-strands 1 --threads 2
"$BIN_DIR/ngs_index" build --in "$WORK/long.fastq" \
  --out "$WORK/long_budget.ngsx" --k 12 --both-strands 1 --threads 2 \
  --memory-budget-mb 1 --spill-dir "$WORK" 2>"$WORK/stderr.txt"
cmp "$WORK/long.ngsx" "$WORK/long_budget.ngsx"
long_peak="$(sed -n 's/.*peak tracked memory \([0-9]*\) bytes.*/\1/p' \
  "$WORK/stderr.txt")"
test -n "$long_peak"
test "$long_peak" -le 1048576

# Direct bounded-memory correction: --memory-budget-mb spills pass 1,
# reports it, and still writes byte-identical output.
"$BIN_DIR/ngs_correct" --in "$WORK/reads.fastq" \
  --out "$WORK/corrected_budget.fastq" --method sap --genome-length 20000 \
  --threads 2 --batch-size 1000 --memory-budget-mb 1 \
  --spill-dir "$WORK" --save-index "$WORK/sap_sharded.ngsx" \
  2>"$WORK/stderr.txt"
grep -q "spill: pass 1 stayed under" "$WORK/stderr.txt"
cmp "$WORK/corrected_budget.fastq" "$WORK/corrected_sap.fastq"
# The budget-built file matches ngs-index build's byte for byte.
cmp "$WORK/sharded.ngsx" "$WORK/sap_sharded.ngsx"
# The budget's lanes split over 1 and 4 pass workers correct the same.
for t in 1 4; do
  "$BIN_DIR/ngs_correct" --in "$WORK/reads.fastq" \
    --out "$WORK/corrected_budget_$t.fastq" --method sap \
    --genome-length 20000 --threads "$t" --memory-budget-mb 1 \
    --spill-dir "$WORK" 2>/dev/null
  cmp "$WORK/corrected_budget_$t.fastq" "$WORK/corrected_sap.fastq"
done
# At 150x one prefix bin alone needs more than 1 MiB to count, so the
# line says the build went over the budget rather than under it.
"$BIN_DIR/ngs_simulate" --genome-length 20000 --coverage 150 --seed 7 \
  --reads "$WORK/reads150.fastq" --genome "$WORK/genome150.fasta"
"$BIN_DIR/ngs_correct" --in "$WORK/reads150.fastq" \
  --out "$WORK/corrected150.fastq" --method sap --genome-length 20000 \
  --threads 2 --memory-budget-mb 1 --spill-dir "$WORK" 2>"$WORK/stderr.txt"
grep -q "spill: pass 1 went over 1 MiB" "$WORK/stderr.txt"

# SAP at k = 32, where a code fills all 64 bits and the all-T 32-mer's
# code is the solid set's empty-slot key. Five reads hold runs of 40 or
# more T's, and in the last one a single A splits a run of 72, which SAP
# mends. The output is the same at 1 and 4 threads, under a 1 MiB
# budget, and through --save-index then --load-index.
t40=$(printf 'T%.0s' $(seq 40))
poly_t_read() { printf '@%s\n%s\n+\n%s\n' "$1" "$2" "${2//?/I}"; }
{
  cat "$WORK/reads.fastq"
  for left in ACG CAG GGA CCA; do
    poly_t_read "poly_t_$left" "$left${t40}TTTTTGCA"
  done
  poly_t_read poly_t_split "ACG${t40}A${t40:0:31}GCA"
} > "$WORK/poly_t.fastq"
sap_k32() {
  "$BIN_DIR/ngs_correct" --in "$WORK/poly_t.fastq" --method sap --k 32 "$@"
}
sap_k32 --out "$WORK/k32_1.fastq" --threads 1 2>/dev/null
sap_k32 --out "$WORK/k32_4.fastq" --threads 4 2>/dev/null
sap_k32 --out "$WORK/k32_budget.fastq" --threads 2 --memory-budget-mb 1 \
  --spill-dir "$WORK" 2>"$WORK/stderr.txt"
grep -q "spill: pass 1" "$WORK/stderr.txt"
sap_k32 --out "$WORK/k32_saved.fastq" --threads 2 \
  --save-index "$WORK/k32.ngsx" 2>/dev/null
sap_k32 --out "$WORK/k32_loaded.fastq" --threads 2 \
  --load-index "$WORK/k32.ngsx" 2>/dev/null
for run in 4 budget saved loaded; do
  cmp "$WORK/k32_1.fastq" "$WORK/k32_$run.fastq"
done
grep -q "${t40}${t40:0:32}" "$WORK/k32_1.fastq"

# Long-lived correction service: the daemon serves $WORK/sap.ngsx saved
# above; corrected_sap/corrected_reptile are the offline references.
service_scenario

echo "tools smoke test passed"
