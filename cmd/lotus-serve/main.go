// Command lotus-serve runs the disaggregated preprocessing service: one
// workload pipeline served over TCP to any number of lotus-fetch (or custom)
// clients, with live observability on an HTTP sidecar.
//
// Usage:
//
//	lotus-serve -workload IC -samples 5120 -addr :9317 -http :9318
//
// Clients handshake with a rank/world pair and receive disjoint shards of
// every epoch's batch plan; /metrics and /trace expose live throughput and a
// Chrome-Trace view of the serving pipeline while it runs. SIGINT/SIGTERM
// starts a graceful drain (in-flight epochs finish, bounded by -drain).
//
// Cluster mode: pass -join with every member's endpoints (including this
// node's) and the server heartbeats its peers' /healthz sidecars, serving
// the live membership view on the sidecar's /cluster endpoint:
//
//	lotus-serve -addr :9317 -http :9318 -node n0 \
//	    -join n0=localhost:9317/localhost:9318,n1=localhost:9417/localhost:9418
//
// Nodes never coordinate work — the deterministic epoch plan plus the
// consumer-side consistent-hash router (internal/cluster) partition it — so
// joining is purely an observability concern here.
//
// Persistent cache: -disk-cache-dir roots a content-addressed disk tier
// under the in-memory caches. Frames and sample snapshots spill there as
// they are produced, survive restarts (even SIGKILL — the index rebuilds
// from checksummed segment scans), and are shared by any job pointed at the
// same directory:
//
//	lotus-serve -workload ICA -cache-mb 256 -sample-cache-mb 256 \
//	    -disk-cache-dir /var/cache/lotus -disk-cache-gb 8
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"lotus/internal/cluster"
	"lotus/internal/native"
	"lotus/internal/pipeline"
	"lotus/internal/serve"
	"lotus/internal/workloads"
)

// parseJoin parses the -join list: comma-separated members, each
// [id=]wireAddr[/httpAddr].
func parseJoin(join string) ([]cluster.Node, error) {
	var nodes []cluster.Node
	for _, entry := range strings.Split(join, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		n := cluster.Node{}
		if id, rest, ok := strings.Cut(entry, "="); ok {
			n.ID, entry = id, rest
		}
		addr, httpAddr, _ := strings.Cut(entry, "/")
		if addr == "" {
			return nil, fmt.Errorf("member %q has no wire address", entry)
		}
		n.Addr, n.HTTPAddr = addr, httpAddr
		nodes = append(nodes, n)
	}
	if len(nodes) == 0 {
		return nil, fmt.Errorf("-join given but no members parsed")
	}
	return nodes, nil
}

func main() {
	var (
		addr     = flag.String("addr", ":9317", "wire protocol listen address")
		httpAddr = flag.String("http", ":9318", "observability sidecar address (empty = disabled)")
		workload = flag.String("workload", "IC", "pipeline: IC, ICA, IS, or OD")
		samples  = flag.Int("samples", 5120, "dataset size")
		batch    = flag.Int("batch", 0, "batch size (0 = workload default)")
		workers  = flag.Int("workers", 0, "DataLoader workers (0 = workload default)")
		prefetch = flag.Int("prefetch", 0, "DataLoader prefetch factor (0 = default)")
		queue    = flag.Int("queue", 4, "per-session server prefetch queue depth in batches")
		mode     = flag.String("mode", "sim", "preprocessing mode: sim (meta tensors), real (pixel payloads), or emulate (sim pipeline paced on the wall clock)")
		dispatch = flag.String("dispatch", "producer", "DataLoader index-dispatch policy: producer (static round-robin), leastwork (lightest backlog), or steal (work-stealing: idle workers drain the most-backlogged peer)")
		seed     = flag.Int64("seed", 1, "randomness root")
		arch     = flag.String("arch", "intel", "simulated CPU vendor: intel or amd")
		matDim   = flag.Int("materialize-dim", 96, "real mode: synthesized image resolution cap")
		ring     = flag.Int("ring", 16384, "live trace ring capacity in records")
		cacheMB  = flag.Int64("cache-mb", 256, "materialized-batch cache budget in MiB (0 = disabled); cached epochs are served without re-running the pipeline")
		scacheMB = flag.Int64("sample-cache-mb", 0, "split-point sample cache budget in MiB (0 = disabled); materializes each sample's deterministic prefix once so augmented epochs skip decode work")
		diskDir  = flag.String("disk-cache-dir", "", "persistent cache directory (empty = disabled); spilled frames and sample snapshots survive restarts and are shared across jobs pointing at the same directory")
		diskGB   = flag.Float64("disk-cache-gb", 4, "persistent cache budget in GiB (segment-granularity LRU eviction above it)")
		drain    = flag.Duration("drain", 15*time.Second, "graceful drain budget on SIGINT/SIGTERM")
		nodeID   = flag.String("node", "", "this node's cluster identity (default: -addr)")
		join     = flag.String("join", "", "cluster member list ([id=]wire[/http] per entry, comma-separated); serves the membership view on /cluster")
		interval = flag.Duration("heartbeat", 500*time.Millisecond, "peer heartbeat interval in cluster mode")
		autotune = flag.Bool("autotune", false, "closed-loop controller: observe wait/queue/cache signals at every completed epoch and retune workers, prefetch, and cache budgets at runtime")
		longWait = flag.Duration("autotune-long-wait", 0, "wait duration the controller counts as a stall (0 = 500ms default)")

		maxSessions = flag.Int("max-sessions", 0, "admission control: concurrent session cap (0 = unlimited); excess connections queue briefly, then get a retryable busy reply")
		admitQueue  = flag.Int("admit-queue", 16, "admission control: connections allowed to wait for a session slot before busy-rejection (negative = reject immediately when full)")
		admitWait   = flag.Duration("admit-wait", 2*time.Second, "admission control: how long a queued connection waits for a slot before busy-rejection")
		qos         = flag.Bool("qos", false, "enable per-tenant QoS (fair scheduling + rate limits) even with no -tenant-limit entries")
		qosLeadKB   = flag.Int("qos-lead-kb", 0, "max weighted KiB a tenant may run ahead of the slowest active tenant (0 = 1024; negative disables lead pacing)")
		logRate     = flag.Float64("log-rate", 0, "per-session server log lines per second before suppression (0 = 50; negative = unlimited)")
		pprofOn     = flag.Bool("pprof", false, "expose /debug/pprof on the observability sidecar")
	)
	tenants := map[string]serve.TenantLimit{}
	flag.Func("tenant-limit",
		"per-tenant QoS limit, repeatable: name:weight=W,bytes=N,batches=N (rates per second, 0 = unlimited); implies -qos",
		func(s string) error {
			name, spec, _ := strings.Cut(s, ":")
			if name = strings.TrimSpace(name); name == "" {
				return fmt.Errorf("tenant-limit %q: empty tenant name", s)
			}
			var lim serve.TenantLimit
			for _, kv := range strings.Split(spec, ",") {
				if kv = strings.TrimSpace(kv); kv == "" {
					continue
				}
				k, v, ok := strings.Cut(kv, "=")
				if !ok {
					return fmt.Errorf("tenant-limit %q: %q is not key=value", s, kv)
				}
				n, err := strconv.Atoi(v)
				if err != nil {
					return fmt.Errorf("tenant-limit %q: %q: %v", s, kv, err)
				}
				switch k {
				case "weight":
					lim.Weight = n
				case "bytes":
					lim.BytesPerSec = int64(n)
				case "batches":
					lim.BatchesPerSec = int64(n)
				default:
					return fmt.Errorf("tenant-limit %q: unknown key %q (want weight, bytes, or batches)", s, k)
				}
			}
			tenants[name] = lim
			return nil
		})
	flag.Parse()

	var spec workloads.Spec
	switch workloads.Kind(*workload) {
	case workloads.IC:
		spec = workloads.ICSpec(*samples, *seed)
	case workloads.ICA:
		spec = workloads.ICASpec(*samples, *seed)
	case workloads.IS:
		spec = workloads.ISSpec(*samples, *seed)
	case workloads.OD:
		spec = workloads.ODSpec(*samples, *seed)
	default:
		fmt.Fprintf(os.Stderr, "lotus-serve: unknown workload %q (want IC, ICA, IS, or OD)\n", *workload)
		os.Exit(2)
	}
	if *batch > 0 {
		spec.BatchSize = *batch
	}
	if *workers > 0 {
		spec.NumWorkers = *workers
	}
	if *prefetch > 0 {
		spec.Prefetch = *prefetch
	}
	if *arch == "amd" {
		spec.Arch = native.AMD
	}
	switch *dispatch {
	case "producer":
	case "leastwork":
		spec.Dispatch = pipeline.DispatchLeastWork
	case "steal":
		spec.Dispatch = pipeline.DispatchWorkStealing
	default:
		fmt.Fprintf(os.Stderr, "lotus-serve: unknown dispatch %q (want producer, leastwork, or steal)\n", *dispatch)
		os.Exit(2)
	}

	pmode := pipeline.Simulated
	emulate := false
	switch *mode {
	case "sim":
	case "real":
		pmode = pipeline.RealData
	case "emulate":
		// Simulated pipeline on the wall clock: modeled latencies pace the
		// stream in real time (load generation, cluster scaling runs).
		emulate = true
	default:
		fmt.Fprintf(os.Stderr, "lotus-serve: unknown mode %q (want sim, real, or emulate)\n", *mode)
		os.Exit(2)
	}

	var mem *cluster.Membership
	self := *nodeID
	if self == "" {
		self = *addr
	}
	var clusterInfo func() any
	if *join != "" {
		nodes, err := parseJoin(*join)
		if err != nil {
			fmt.Fprintf(os.Stderr, "lotus-serve: -join: %v\n", err)
			os.Exit(2)
		}
		mem = cluster.NewMembership(cluster.MembershipConfig{
			Nodes:    nodes,
			Interval: *interval,
			Logf:     log.Printf,
		})
		clusterInfo = func() any {
			return map[string]any{"node": self, "members": mem.Snapshot()}
		}
	}

	srv := serve.New(serve.Config{
		Spec:             spec,
		Mode:             pmode,
		EmulateTime:      emulate,
		Prefetch:         *queue,
		MaterializeDim:   *matDim,
		RingSize:         *ring,
		BatchCacheBytes:  *cacheMB << 20,
		SampleCacheBytes: *scacheMB << 20,
		DiskCacheDir:     *diskDir,
		DiskCacheBytes:   int64(*diskGB * float64(1<<30)),
		AutoTune:         *autotune,
		AutoTuneLongWait: *longWait,
		MaxSessions:      *maxSessions,
		AdmitQueue:       *admitQueue,
		AdmitWait:        *admitWait,
		QoS:              *qos,
		QoSLeadBytes:     int64(*qosLeadKB) << 10,
		Tenants:          tenants,
		LogLinesPerSec:   *logRate,
		Pprof:            *pprofOn,
		ClusterInfo:      clusterInfo,
		Logf:             log.Printf,
	})
	if err := srv.Start(*addr, *httpAddr); err != nil {
		fmt.Fprintf(os.Stderr, "lotus-serve: %v\n", err)
		os.Exit(1)
	}
	if h := srv.HTTPAddr(); h != "" {
		endpoints := "/healthz /metrics /trace"
		if mem != nil {
			endpoints += " /cluster"
		}
		log.Printf("lotus-serve: observability on http://%s (%s)", h, endpoints)
	}
	if mem != nil {
		mem.Start()
		defer mem.Stop()
		log.Printf("lotus-serve: node %s probing %d cluster members every %v", self, len(mem.Snapshot()), *interval)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	log.Printf("lotus-serve: draining (budget %v)", *drain)
	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		log.Printf("lotus-serve: drain budget exhausted, sessions aborted: %v", err)
		os.Exit(1)
	}
}
