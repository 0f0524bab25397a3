#!/usr/bin/env bash
# bench.sh — run the headline microbenchmarks behind the PRs' performance
# claims and capture benchstat-ready output plus JSON summaries.
#
# Usage: scripts/bench.sh [pr1-out.json] [pr2-out.json] [pr4-out.json] [pr5-out.json] [pr6-out.json] [pr7-out.json] [pr8-out.json] [pr9-out.json] [pr10-out.json]
# Stage 1: the four PR-1 hot-path microbenchmarks -> BENCH_PR1.json.
# Stage 2: the PR-2 service-throughput benchmark (batches/sec at 1, 2, and
# 4 clients over loopback TCP) -> BENCH_PR2.json.
# Stage 3: the PR-4 cluster-throughput benchmark (batches/sec routed across
# 1, 2, and 3 emulate-time loopback nodes) -> BENCH_PR4.json, plus a check
# that the 3-node aggregate beats the single node.
# Stage 4: the PR-5 materialized-batch-cache comparison (uncached vs cached
# service throughput at 1..8 clients, plus the pooled-encode benchmarks)
# -> BENCH_PR5.json, plus a check that cached clients=4 is at least 2x the
# uncached clients=1 baseline.
# Stage 5: the PR-6 split-point sample-cache comparison on the augmented
# workload (every iteration is a fresh epoch, so the batch cache never hits)
# -> BENCH_PR6.json, plus a check that the sampleCached series is at least
# 5x the cold series.
# Stage 6: the PR-7 warm-restart comparison (fresh server per iteration,
# cold recompute vs a disk directory warmed once) -> BENCH_PR7.json, plus a
# check that warmRestart is at least 5x cold.
# Stage 7: the PR-8 straggler-tail comparison (p99 epoch latency across a
# 3-node cluster with one degraded node, hedged vs unhedged) ->
# BENCH_PR8.json, plus a check that hedging cuts the p99 at least 2x.
# Stage 8: the PR-9 closed-loop balancer comparison (aggregate throughput of
# an imbalanced 3-node emulate cluster whose busiest node pays ~3x per
# batch, autotune off vs on) -> BENCH_PR9.json, plus a check that the
# balancer lifts throughput at least 1.5x.
# Stage 9: the PR-10 multi-tenancy scalability suite -> BENCH_PR10.json:
# per-session footprint (bytes and goroutines, idle and streaming), aggregate
# cache-served throughput at 8/64/256/1024 concurrent sessions, and tenant
# fairness with one adversarial greedy tenant (Jain index, worst per-tenant
# p99). Gates: clients=256 aggregate >= 0.8x the clients=8 baseline, and
# Jain >= 0.9 under the greedy tenant.
# The raw `go test -bench` output (6 repetitions, suitable for feeding to
# benchstat old.txt new.txt) is written next to each JSON as <outfile>.txt.
set -euo pipefail

cd "$(dirname "$0")/.."

# Fail loudly before any stage runs: a package that no longer builds would
# otherwise surface as a confusing mid-run awk parse of go's error text.
echo "preflight: go build ./... ..."
if ! go build ./...; then
    echo "FAIL: go build ./... failed — fix the build before benchmarking" >&2
    exit 1
fi

# require_bench FILE STAGE: a stage whose `go test -bench` output contains no
# benchmark lines produced nothing to summarize (regex typo, build failure
# swallowed by tee, benchmark renamed) — fail instead of writing empty JSON.
require_bench() {
    if ! grep -q '^Benchmark' "$1"; then
        echo "FAIL: $2 produced no benchmark lines in $1" >&2
        exit 1
    fi
}

OUT_JSON="${1:-BENCH_PR1.json}"
OUT_TXT="${OUT_JSON%.json}.txt"
SERVE_JSON="${2:-BENCH_PR2.json}"
SERVE_TXT="${SERVE_JSON%.json}.txt"
CLUSTER_JSON="${3:-BENCH_PR4.json}"
CLUSTER_TXT="${CLUSTER_JSON%.json}.txt"
CACHE_JSON="${4:-BENCH_PR5.json}"
CACHE_TXT="${CACHE_JSON%.json}.txt"
SCACHE_JSON="${5:-BENCH_PR6.json}"
SCACHE_TXT="${SCACHE_JSON%.json}.txt"
DISK_JSON="${6:-BENCH_PR7.json}"
DISK_TXT="${DISK_JSON%.json}.txt"
STRAG_JSON="${7:-BENCH_PR8.json}"
STRAG_TXT="${STRAG_JSON%.json}.txt"
TUNE_JSON="${8:-BENCH_PR9.json}"
TUNE_TXT="${TUNE_JSON%.json}.txt"
MT_JSON="${9:-BENCH_PR10.json}"
MT_TXT="${MT_JSON%.json}.txt"

BENCHES='BenchmarkBilinearResize|BenchmarkSJPGDecode|BenchmarkUntracedEpoch|BenchmarkTracerEmit'

echo "running: $BENCHES (6 reps, -benchmem) ..."
go test -run '^$' -bench "$BENCHES" -benchmem -count=6 . | tee "$OUT_TXT"
require_bench "$OUT_TXT" "stage 1"

# Summarize medians into JSON (portable awk, no gawk extensions).
awk '
/^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)
    if (!(name in seen)) { seen[name] = 1; order[++n_names] = name }
    ns[name] = ns[name] " " $3
    for (i = 4; i <= NF; i++) {
        if ($(i+1) == "B/op")      bop[name]    = bop[name] " " $i
        if ($(i+1) == "allocs/op") allocs[name] = allocs[name] " " $i
    }
}
function median(s,   a, n, i, j, t) {
    n = split(s, a, " ")
    for (i = 2; i <= n; i++) {
        t = a[i] + 0
        for (j = i - 1; j >= 1 && a[j] + 0 > t; j--) a[j+1] = a[j]
        a[j+1] = t
    }
    if (n % 2) return a[(n+1)/2]
    return (a[n/2] + a[n/2+1]) / 2
}
END {
    printf "{\n"
    for (i = 1; i <= n_names; i++) {
        name = order[i]
        printf "  \"%s\": {\"ns_op\": %s, \"B_op\": %s, \"allocs_op\": %s}%s\n", \
            name, median(ns[name]), median(bop[name]), median(allocs[name]), \
            (i < n_names ? "," : "")
    }
    printf "}\n"
}' "$OUT_TXT" > "$OUT_JSON"

echo "summary written to $OUT_JSON (raw benchstat input: $OUT_TXT)"

echo "running: BenchmarkServiceThroughput (6 reps) ..."
# Anchored so the PR-5 BenchmarkServiceThroughputCached does not pollute the
# PR-2 baseline series.
go test -run '^$' -bench '^BenchmarkServiceThroughput$' -count=6 ./internal/serve | tee "$SERVE_TXT"
require_bench "$SERVE_TXT" "stage 2"

awk '
/^BenchmarkServiceThroughput\// {
    name = $1
    sub(/-[0-9]+$/, "", name)
    if (!(name in seen)) { seen[name] = 1; order[++n_names] = name }
    ns[name] = ns[name] " " $3
    for (i = 4; i <= NF; i++) {
        if ($(i+1) == "batches/sec") bps[name] = bps[name] " " $i
    }
}
function median(s,   a, n, i, j, t) {
    n = split(s, a, " ")
    for (i = 2; i <= n; i++) {
        t = a[i] + 0
        for (j = i - 1; j >= 1 && a[j] + 0 > t; j--) a[j+1] = a[j]
        a[j+1] = t
    }
    if (n % 2) return a[(n+1)/2]
    return (a[n/2] + a[n/2+1]) / 2
}
END {
    printf "{\n"
    for (i = 1; i <= n_names; i++) {
        name = order[i]
        printf "  \"%s\": {\"ns_op\": %s, \"batches_per_sec\": %s}%s\n", \
            name, median(ns[name]), median(bps[name]), \
            (i < n_names ? "," : "")
    }
    printf "}\n"
}' "$SERVE_TXT" > "$SERVE_JSON"

echo "summary written to $SERVE_JSON (raw benchstat input: $SERVE_TXT)"

echo "running: BenchmarkClusterThroughput (3 reps) ..."
go test -run '^$' -bench 'BenchmarkClusterThroughput' -count=3 ./internal/cluster | tee "$CLUSTER_TXT"
require_bench "$CLUSTER_TXT" "stage 3"

awk '
/^BenchmarkClusterThroughput/ {
    name = $1
    sub(/-[0-9]+$/, "", name)
    if (!(name in seen)) { seen[name] = 1; order[++n_names] = name }
    ns[name] = ns[name] " " $3
    for (i = 4; i <= NF; i++) {
        if ($(i+1) == "batches/sec") bps[name] = bps[name] " " $i
    }
}
function median(s,   a, n, i, j, t) {
    n = split(s, a, " ")
    for (i = 2; i <= n; i++) {
        t = a[i] + 0
        for (j = i - 1; j >= 1 && a[j] + 0 > t; j--) a[j+1] = a[j]
        a[j+1] = t
    }
    if (n % 2) return a[(n+1)/2]
    return (a[n/2] + a[n/2+1]) / 2
}
END {
    printf "{\n"
    for (i = 1; i <= n_names; i++) {
        name = order[i]
        printf "  \"%s\": {\"ns_op\": %s, \"batches_per_sec\": %s}%s\n", \
            name, median(ns[name]), median(bps[name]), \
            (i < n_names ? "," : "")
    }
    printf "}\n"
}' "$CLUSTER_TXT" > "$CLUSTER_JSON"

echo "summary written to $CLUSTER_JSON (raw benchstat input: $CLUSTER_TXT)"

# Scaling check: the 3-node cluster must out-serve the single node.
awk -F'[:,}]' '
/nodes=1/ { for (i = 1; i <= NF; i++) if ($i ~ /batches_per_sec/) one = $(i+1) + 0 }
/nodes=3/ { for (i = 1; i <= NF; i++) if ($i ~ /batches_per_sec/) three = $(i+1) + 0 }
END {
    printf "cluster scaling: nodes=1 %.1f batches/sec, nodes=3 %.1f batches/sec (%.2fx)\n", one, three, three / one
    if (!(three > one)) { print "FAIL: 3-node cluster is not faster than a single node" > "/dev/stderr"; exit 1 }
}' "$CLUSTER_JSON"

echo "running: BenchmarkServiceThroughput(Cached)? + encode benchmarks (6 reps) ..."
go test -run '^$' -bench '^(BenchmarkServiceThroughput|BenchmarkServiceThroughputCached|BenchmarkEncodeBatch|BenchmarkEncodeBatchPooled)$' \
    -benchmem -count=6 ./internal/serve | tee "$CACHE_TXT"
require_bench "$CACHE_TXT" "stage 4"

awk '
/^Benchmark(ServiceThroughput|EncodeBatch)/ {
    name = $1
    sub(/-[0-9]+$/, "", name)
    if (!(name in seen)) { seen[name] = 1; order[++n_names] = name }
    ns[name] = ns[name] " " $3
    for (i = 4; i <= NF; i++) {
        if ($(i+1) == "batches/sec") bps[name] = bps[name] " " $i
        if ($(i+1) == "allocs/op")   allocs[name] = allocs[name] " " $i
    }
}
function median(s,   a, n, i, j, t) {
    n = split(s, a, " ")
    for (i = 2; i <= n; i++) {
        t = a[i] + 0
        for (j = i - 1; j >= 1 && a[j] + 0 > t; j--) a[j+1] = a[j]
        a[j+1] = t
    }
    if (n % 2) return a[(n+1)/2]
    return (a[n/2] + a[n/2+1]) / 2
}
END {
    printf "{\n"
    for (i = 1; i <= n_names; i++) {
        name = order[i]
        printf "  \"%s\": {\"ns_op\": %s", name, median(ns[name])
        if (bps[name] != "")    printf ", \"batches_per_sec\": %s", median(bps[name])
        if (allocs[name] != "") printf ", \"allocs_op\": %s", median(allocs[name])
        printf "}%s\n", (i < n_names ? "," : "")
    }
    printf "}\n"
}' "$CACHE_TXT" > "$CACHE_JSON"

echo "summary written to $CACHE_JSON (raw benchstat input: $CACHE_TXT)"

# Acceptance checks: cached clients=4 must be at least 2x the uncached
# clients=1 baseline, and the pooled encoder must be allocation-free.
awk -F'[:,}]' '
/"BenchmarkServiceThroughput\/clients=1"/       { for (i = 1; i <= NF; i++) if ($i ~ /batches_per_sec/) base = $(i+1) + 0 }
/"BenchmarkServiceThroughputCached\/clients=4"/ { for (i = 1; i <= NF; i++) if ($i ~ /batches_per_sec/) cached = $(i+1) + 0 }
/"BenchmarkEncodeBatchPooled"/                  { for (i = 1; i <= NF; i++) if ($i ~ /allocs_op/)       pooled_allocs = $(i+1) + 0 }
END {
    printf "cache scaling: uncached clients=1 %.1f batches/sec, cached clients=4 %.1f batches/sec (%.2fx)\n", base, cached, cached / base
    if (!(cached >= 2 * base)) { print "FAIL: cached clients=4 is not 2x the uncached clients=1 baseline" > "/dev/stderr"; exit 1 }
    printf "pooled encode: %d allocs/op\n", pooled_allocs
    if (pooled_allocs != 0) { print "FAIL: pooled batch encoder allocates" > "/dev/stderr"; exit 1 }
}' "$CACHE_JSON"

echo "running: BenchmarkServiceThroughputAugmented (6 reps) ..."
go test -run '^$' -bench '^BenchmarkServiceThroughputAugmented$' -count=6 ./internal/serve | tee "$SCACHE_TXT"
require_bench "$SCACHE_TXT" "stage 5"

awk '
/^BenchmarkServiceThroughputAugmented\// {
    name = $1
    sub(/-[0-9]+$/, "", name)
    if (!(name in seen)) { seen[name] = 1; order[++n_names] = name }
    ns[name] = ns[name] " " $3
    for (i = 4; i <= NF; i++) {
        if ($(i+1) == "batches/sec") bps[name] = bps[name] " " $i
    }
}
function median(s,   a, n, i, j, t) {
    n = split(s, a, " ")
    for (i = 2; i <= n; i++) {
        t = a[i] + 0
        for (j = i - 1; j >= 1 && a[j] + 0 > t; j--) a[j+1] = a[j]
        a[j+1] = t
    }
    if (n % 2) return a[(n+1)/2]
    return (a[n/2] + a[n/2+1]) / 2
}
END {
    printf "{\n"
    for (i = 1; i <= n_names; i++) {
        name = order[i]
        printf "  \"%s\": {\"ns_op\": %s, \"batches_per_sec\": %s}%s\n", \
            name, median(ns[name]), median(bps[name]), \
            (i < n_names ? "," : "")
    }
    printf "}\n"
}' "$SCACHE_TXT" > "$SCACHE_JSON"

echo "summary written to $SCACHE_JSON (raw benchstat input: $SCACHE_TXT)"

# Acceptance check: the sample-cached augmented series must be at least 5x
# the cold series — the split-point cache's reason to exist.
awk -F'[:,}]' '
/"BenchmarkServiceThroughputAugmented\/cold"/         { for (i = 1; i <= NF; i++) if ($i ~ /batches_per_sec/) cold = $(i+1) + 0 }
/"BenchmarkServiceThroughputAugmented\/sampleCached"/ { for (i = 1; i <= NF; i++) if ($i ~ /batches_per_sec/) cached = $(i+1) + 0 }
END {
    printf "sample cache: cold %.1f batches/sec, sampleCached %.1f batches/sec (%.2fx)\n", cold, cached, cached / cold
    if (!(cached >= 5 * cold)) { print "FAIL: sampleCached is not 5x the cold augmented baseline" > "/dev/stderr"; exit 1 }
}' "$SCACHE_JSON"

echo "running: BenchmarkServiceWarmRestart (6 reps) ..."
go test -run '^$' -bench '^BenchmarkServiceWarmRestart$' -count=6 ./internal/serve | tee "$DISK_TXT"
require_bench "$DISK_TXT" "stage 6"

awk '
/^BenchmarkServiceWarmRestart\// {
    name = $1
    sub(/-[0-9]+$/, "", name)
    if (!(name in seen)) { seen[name] = 1; order[++n_names] = name }
    ns[name] = ns[name] " " $3
    for (i = 4; i <= NF; i++) {
        if ($(i+1) == "batches/sec") bps[name] = bps[name] " " $i
    }
}
function median(s,   a, n, i, j, t) {
    n = split(s, a, " ")
    for (i = 2; i <= n; i++) {
        t = a[i] + 0
        for (j = i - 1; j >= 1 && a[j] + 0 > t; j--) a[j+1] = a[j]
        a[j+1] = t
    }
    if (n % 2) return a[(n+1)/2]
    return (a[n/2] + a[n/2+1]) / 2
}
END {
    printf "{\n"
    for (i = 1; i <= n_names; i++) {
        name = order[i]
        printf "  \"%s\": {\"ns_op\": %s, \"batches_per_sec\": %s}%s\n", \
            name, median(ns[name]), median(bps[name]), \
            (i < n_names ? "," : "")
    }
    printf "}\n"
}' "$DISK_TXT" > "$DISK_JSON"

echo "summary written to $DISK_JSON (raw benchstat input: $DISK_TXT)"

# Acceptance check: a restart onto a warmed disk directory must stream at
# least 5x the cold-restart recompute — the persistent tier's reason to exist.
awk -F'[:,}]' '
/"BenchmarkServiceWarmRestart\/cold"/        { for (i = 1; i <= NF; i++) if ($i ~ /batches_per_sec/) cold = $(i+1) + 0 }
/"BenchmarkServiceWarmRestart\/warmRestart"/ { for (i = 1; i <= NF; i++) if ($i ~ /batches_per_sec/) warm = $(i+1) + 0 }
END {
    printf "warm restart: cold %.1f batches/sec, warmRestart %.1f batches/sec (%.2fx)\n", cold, warm, warm / cold
    if (!(warm >= 5 * cold)) { print "FAIL: warmRestart is not 5x the cold restart baseline" > "/dev/stderr"; exit 1 }
}' "$DISK_JSON"

echo "running: BenchmarkStragglerTail (3 reps) ..."
# Each iteration routes a full epoch through a 3-node cluster whose busiest
# node stalls 1.5s per batch, so reps are expensive; 3 medians are enough for
# a >=2x gate.
go test -run '^$' -bench '^BenchmarkStragglerTail$' -benchtime 4x -count=3 -timeout 30m ./internal/cluster | tee "$STRAG_TXT"
require_bench "$STRAG_TXT" "stage 7"

awk '
/^BenchmarkStragglerTail\// {
    name = $1
    sub(/-[0-9]+$/, "", name)
    if (!(name in seen)) { seen[name] = 1; order[++n_names] = name }
    ns[name] = ns[name] " " $3
    for (i = 4; i <= NF; i++) {
        if ($(i+1) == "p99-epoch-ms") p99[name] = p99[name] " " $i
        if ($(i+1) == "batches/sec")  bps[name] = bps[name] " " $i
    }
}
function median(s,   a, n, i, j, t) {
    n = split(s, a, " ")
    for (i = 2; i <= n; i++) {
        t = a[i] + 0
        for (j = i - 1; j >= 1 && a[j] + 0 > t; j--) a[j+1] = a[j]
        a[j+1] = t
    }
    if (n % 2) return a[(n+1)/2]
    return (a[n/2] + a[n/2+1]) / 2
}
END {
    printf "{\n"
    for (i = 1; i <= n_names; i++) {
        name = order[i]
        printf "  \"%s\": {\"ns_op\": %s, \"p99_epoch_ms\": %s, \"batches_per_sec\": %s}%s\n", \
            name, median(ns[name]), median(p99[name]), median(bps[name]), \
            (i < n_names ? "," : "")
    }
    printf "}\n"
}' "$STRAG_TXT" > "$STRAG_JSON"

echo "summary written to $STRAG_JSON (raw benchstat input: $STRAG_TXT)"

# Acceptance check: hedged fetches must cut the straggler cluster's p99 epoch
# latency at least in half — the PR-8 headline claim. Output bytes are
# verified inside the benchmark itself (every epoch is compared to a healthy
# node's ground truth).
awk -F'[:,}]' '
/"BenchmarkStragglerTail\/hedge=off"/ { for (i = 1; i <= NF; i++) if ($i ~ /p99_epoch_ms/) off = $(i+1) + 0 }
/"BenchmarkStragglerTail\/hedge=on"/  { for (i = 1; i <= NF; i++) if ($i ~ /p99_epoch_ms/) on = $(i+1) + 0 }
END {
    printf "straggler tail: hedge=off p99 %.0f ms, hedge=on p99 %.0f ms (%.2fx)\n", off, on, off / on
    if (!(off >= 2 * on)) { print "FAIL: hedged fetches do not cut straggler p99 epoch latency 2x" > "/dev/stderr"; exit 1 }
}' "$STRAG_JSON"

echo "running: BenchmarkAutotuneImbalanced (3 reps) ..."
# Each iteration routes a full epoch through an imbalanced 3-node emulate
# cluster (the busiest node stalls 100ms per batch); the autotune=on series
# re-weights the ring as it goes, so 4 iterations per rep cover convergence
# plus the settled regime.
go test -run '^$' -bench '^BenchmarkAutotuneImbalanced$' -benchtime 4x -count=3 -timeout 30m ./internal/cluster | tee "$TUNE_TXT"
require_bench "$TUNE_TXT" "stage 8"

awk '
/^BenchmarkAutotuneImbalanced\// {
    name = $1
    sub(/-[0-9]+$/, "", name)
    if (!(name in seen)) { seen[name] = 1; order[++n_names] = name }
    ns[name] = ns[name] " " $3
    for (i = 4; i <= NF; i++) {
        if ($(i+1) == "batches/sec")   bps[name] = bps[name] " " $i
        if ($(i+1) == "victim-weight") vw[name]  = vw[name] " " $i
    }
}
function median(s,   a, n, i, j, t) {
    n = split(s, a, " ")
    for (i = 2; i <= n; i++) {
        t = a[i] + 0
        for (j = i - 1; j >= 1 && a[j] + 0 > t; j--) a[j+1] = a[j]
        a[j+1] = t
    }
    if (n % 2) return a[(n+1)/2]
    return (a[n/2] + a[n/2+1]) / 2
}
END {
    printf "{\n"
    for (i = 1; i <= n_names; i++) {
        name = order[i]
        printf "  \"%s\": {\"ns_op\": %s, \"batches_per_sec\": %s", \
            name, median(ns[name]), median(bps[name])
        if (vw[name] != "") printf ", \"victim_weight\": %s", median(vw[name])
        printf "}%s\n", (i < n_names ? "," : "")
    }
    printf "}\n"
}' "$TUNE_TXT" > "$TUNE_JSON"

echo "summary written to $TUNE_JSON (raw benchstat input: $TUNE_TXT)"

# Acceptance check: the closed-loop balancer must lift the imbalanced
# cluster'"'"'s aggregate throughput at least 1.5x — the PR-9 headline claim.
# Output bytes are verified inside the benchmark itself (every epoch is
# compared to ground truth).
awk -F'"'"'[:,}]'"'"' '
/"BenchmarkAutotuneImbalanced\/autotune=false"/ { for (i = 1; i <= NF; i++) if ($i ~ /batches_per_sec/) off = $(i+1) + 0 }
/"BenchmarkAutotuneImbalanced\/autotune=true"/  { for (i = 1; i <= NF; i++) if ($i ~ /batches_per_sec/) on = $(i+1) + 0 }
END {
    printf "autotune imbalance: off %.1f batches/sec, on %.1f batches/sec (%.2fx)\n", off, on, on / off
    if (!(on >= 1.5 * off)) { print "FAIL: the balancer does not lift imbalanced-cluster throughput 1.5x" > "/dev/stderr"; exit 1 }
}' "$TUNE_JSON"

echo "running: session-scalability suite (3 reps) ..."
# Footprint: 128 idle (or streaming) sessions per iteration, reporting heap
# bytes and goroutines per session. Scaling: every client holds a live
# session and re-fetches a cache-served epoch concurrently; clients=1024 is
# the O(1000)-session headline. Fairness: three polite tenants at 4 sessions
# each against one greedy tenant at 12, cached and uncached, QoS off then on;
# each cell reports the worst window's Jain index over per-tenant delivered
# batches, and each qos=on cell its polite_ratio (polite batches/s with QoS
# over without it, same run).
go test -run '^$' -bench 'BenchmarkSessionFootprint|BenchmarkSessionScaling|BenchmarkTenantFairness' \
    -benchtime 3x -count=3 -timeout 30m ./internal/serve | tee "$MT_TXT"
require_bench "$MT_TXT" "stage 9"

awk '
/^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)
    if (!(name in seen)) { seen[name] = 1; order[++n_names] = name }
    ns[name] = ns[name] " " $3
    for (i = 4; i <= NF; i++) {
        if ($(i+1) == "batches/sec")        bps[name]  = bps[name] " " $i
        if ($(i+1) == "bytes/session")      bpsn[name] = bpsn[name] " " $i
        if ($(i+1) == "goroutines/session") gpsn[name] = gpsn[name] " " $i
        if ($(i+1) == "jain")               jain[name] = jain[name] " " $i
        if ($(i+1) == "polite_ratio")       pol[name]  = pol[name] " " $i
        if ($(i+1) == "p99-us")             p99[name]  = p99[name] " " $i
    }
}
function median(s,   a, n, i, j, t) {
    n = split(s, a, " ")
    for (i = 2; i <= n; i++) {
        t = a[i] + 0
        for (j = i - 1; j >= 1 && a[j] + 0 > t; j--) a[j+1] = a[j]
        a[j+1] = t
    }
    if (n % 2) return a[(n+1)/2]
    return (a[n/2] + a[n/2+1]) / 2
}
END {
    printf "{\n"
    for (i = 1; i <= n_names; i++) {
        name = order[i]
        printf "  \"%s\": {\"ns_op\": %s", name, median(ns[name])
        if (bps[name]  != "") printf ", \"batches_per_sec\": %s", median(bps[name])
        if (bpsn[name] != "") printf ", \"bytes_per_session\": %s", median(bpsn[name])
        if (gpsn[name] != "") printf ", \"goroutines_per_session\": %s", median(gpsn[name])
        if (jain[name] != "") printf ", \"jain\": %s", median(jain[name])
        if (pol[name]  != "") printf ", \"polite_ratio\": %s", median(pol[name])
        if (p99[name]  != "") printf ", \"p99_us\": %s", median(p99[name])
        printf "}%s\n", (i < n_names ? "," : "")
    }
    printf "}\n"
}' "$MT_TXT" > "$MT_JSON"

echo "summary written to $MT_JSON (raw benchstat input: $MT_TXT)"

# Acceptance checks: the PR-10 headline claims. Scaling must be flat — the
# 256-session aggregate holds at least 0.8x the 8-session baseline (and the
# 1024-session series must exist: the benchmark fails internally if sessions
# die). Fairness, in the cached and the uncached regime: Jain >= 0.9 with the
# greedy tenant over-subscribed 3x (a scheduler that does nothing fails it),
# and polite_ratio >= 0.9 (one that throttles everyone fails it).
# Byte-identity under concurrency is asserted inside the soak/chaos tests.
awk -F'[:,}]' '
/"BenchmarkSessionScaling\/clients=8"/    { for (i = 1; i <= NF; i++) if ($i ~ /batches_per_sec/)  base = $(i+1) + 0 }
/"BenchmarkSessionScaling\/clients=256"/  { for (i = 1; i <= NF; i++) if ($i ~ /batches_per_sec/)  mid  = $(i+1) + 0 }
/"BenchmarkSessionScaling\/clients=1024"/ { for (i = 1; i <= NF; i++) if ($i ~ /batches_per_sec/)  big  = $(i+1) + 0 }
/"BenchmarkTenantFairness\/(cached|uncached)\/qos=on"/ {
    r = ($0 ~ /uncached/) ? "uncached" : "cached"
    for (i = 1; i <= NF; i++) {
        if ($i ~ /"jain"/)         j[r]  = $(i+1) + 0
        if ($i ~ /"polite_ratio"/) pr[r] = $(i+1) + 0
    }
}
END {
    printf "session scaling: clients=8 %.0f, clients=256 %.0f (%.2fx), clients=1024 %.0f batches/sec\n", \
        base, mid, mid / base, big
    printf "fairness: cached jain %.3f polite_ratio %.3f; uncached jain %.3f polite_ratio %.3f\n", \
        j["cached"], pr["cached"], j["uncached"], pr["uncached"]
    if (big <= 0)            { print "FAIL: the 1024-session series produced no throughput" > "/dev/stderr"; exit 1 }
    if (!(mid >= 0.8 * base)) { print "FAIL: 256-session aggregate fell below 0.8x the 8-session baseline" > "/dev/stderr"; exit 1 }
    for (k = 1; k <= 2; k++) {
        r = (k == 1) ? "cached" : "uncached"
        if (!(j[r] >= 0.9))  { print "FAIL: " r " Jain fairness below 0.9 under the greedy tenant" > "/dev/stderr"; exit 1 }
        if (!(pr[r] >= 0.9)) { print "FAIL: " r " QoS cuts the polite tenants below 0.9x their no-QoS rate" > "/dev/stderr"; exit 1 }
    }
}' "$MT_JSON"
