package serve

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lotus/internal/pipeline"
	"lotus/internal/tensor"
	"lotus/internal/workloads"
)

// BenchmarkServiceThroughput measures served batches per second end to end
// (pipeline -> wire encode -> loopback TCP -> decode -> checksum) as the
// client count scales. Each iteration streams one full epoch sharded across
// the clients. scripts/bench.sh captures the batches/sec metric into
// BENCH_PR2.json.
func BenchmarkServiceThroughput(b *testing.B) {
	for _, clients := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("clients=%d", clients), func(b *testing.B) {
			benchServiceThroughput(b, clients, 0)
		})
	}
}

// BenchmarkServiceThroughputCached is the same workload with the
// materialized-batch cache enabled: every client re-fetches epoch 0, so after
// the first iteration the server streams cached frames instead of re-running
// the pipeline. scripts/bench.sh compares this against the uncached series
// into BENCH_PR5.json.
func BenchmarkServiceThroughputCached(b *testing.B) {
	for _, clients := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("clients=%d", clients), func(b *testing.B) {
			benchServiceThroughput(b, clients, 256<<20)
		})
	}
}

func benchServiceThroughput(b *testing.B, clients int, cacheBytes int64) {
	spec := workloads.ICSpec(1280, 7)
	spec.BatchSize = 64 // 20 batches per epoch
	spec.NumWorkers = 2
	srv := New(Config{Spec: spec, Mode: pipeline.Simulated, Prefetch: 4,
		BatchCacheBytes: cacheBytes})
	if err := srv.Start("127.0.0.1:0", ""); err != nil {
		b.Fatal(err)
	}
	defer srv.Close()

	conns := make([]*Client, clients)
	for rank := range conns {
		conns[rank] = NewClient(ClientConfig{Addr: srv.Addr(), Rank: rank, World: clients})
		if err := conns[rank].Connect(); err != nil {
			b.Fatal(err)
		}
		defer conns[rank].Close()
	}

	totalBatches := 0
	var mu sync.Mutex
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		for _, c := range conns {
			wg.Add(1)
			go func(c *Client) {
				defer wg.Done()
				stats, err := c.Run(1, nil)
				if err != nil {
					b.Error(err)
					return
				}
				mu.Lock()
				totalBatches += stats.Batches
				mu.Unlock()
			}(c)
		}
		wg.Wait()
	}
	b.StopTimer()
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(totalBatches)/sec, "batches/sec")
	}
}

// BenchmarkServiceThroughputAugmented measures the split-point sample cache's
// effect on an augmented workload: the ICA pipeline in emulate mode (modeled
// preprocessing latencies paced on the wall clock), batch cache off so every
// epoch re-runs the pipeline. Each iteration streams a *fresh* epoch — the
// augmented regime, where the batch cache can never hit — so the cold series
// pays the full decode+resize prefix every epoch, while the sampleCached
// series replays the materialized prefixes and pays only the random suffix.
// scripts/bench.sh captures both into BENCH_PR6.json and gates sampleCached
// at >= 5x cold.
func BenchmarkServiceThroughputAugmented(b *testing.B) {
	b.Run("cold", func(b *testing.B) { benchServiceAugmented(b, 0) })
	b.Run("sampleCached", func(b *testing.B) { benchServiceAugmented(b, 512<<20) })
}

func benchServiceAugmented(b *testing.B, sampleCacheBytes int64) {
	spec := workloads.ICASpec(256, 7)
	spec.BatchSize = 16 // 16 batches per epoch
	spec.NumWorkers = 4
	srv := New(Config{Spec: spec, Mode: pipeline.Simulated, EmulateTime: true,
		Prefetch: 4, BatchCacheBytes: 0, SampleCacheBytes: sampleCacheBytes})
	if err := srv.Start("127.0.0.1:0", ""); err != nil {
		b.Fatal(err)
	}
	defer srv.Close()

	c := NewClient(ClientConfig{Addr: srv.Addr()})
	if err := c.Connect(); err != nil {
		b.Fatal(err)
	}
	defer c.Close()

	// Epoch 0 pays the one-time materialization cost outside the timed
	// region, so the cached series measures the steady state every later
	// epoch of a training run sees.
	if err := c.fetchEpoch(0, nil, nil); err != nil {
		b.Fatal(err)
	}

	totalBatches := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var st FetchStats
		if err := c.fetchEpoch(i+1, nil, &st); err != nil {
			b.Fatal(err)
		}
		totalBatches += st.Batches
	}
	b.StopTimer()
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(totalBatches)/sec, "batches/sec")
	}
}

// BenchmarkServiceWarmRestart measures restart warming from the persistent
// tier: both series bring up a FRESH server per iteration and stream epoch 0
// of the augmented ICA workload in emulate mode. The cold series has no disk
// directory, so every restart re-runs the paced pipeline from scratch; the
// warmRestart series points each fresh server at a directory warmed once
// outside the timer, so restarts serve every frame from the disk tier and
// skip the pipeline (and its pacing) entirely. scripts/bench.sh captures
// both into BENCH_PR7.json and gates warmRestart at >= 5x cold.
func BenchmarkServiceWarmRestart(b *testing.B) {
	b.Run("cold", func(b *testing.B) { benchServiceRestart(b, false) })
	b.Run("warmRestart", func(b *testing.B) { benchServiceRestart(b, true) })
}

func benchServiceRestart(b *testing.B, warm bool) {
	spec := workloads.ICASpec(256, 7)
	spec.BatchSize = 16 // 16 batches per epoch
	spec.NumWorkers = 4
	start := func(dir string) *Server {
		srv := New(Config{Spec: spec, Mode: pipeline.Simulated, EmulateTime: true,
			Prefetch: 4, BatchCacheBytes: 256 << 20, DiskCacheDir: dir})
		if err := srv.Start("127.0.0.1:0", ""); err != nil {
			b.Fatal(err)
		}
		return srv
	}
	fetch := func(srv *Server, st *FetchStats) {
		c := NewClient(ClientConfig{Addr: srv.Addr()})
		defer c.Close()
		if err := c.fetchEpoch(0, nil, st); err != nil {
			b.Fatal(err)
		}
	}

	dir := ""
	if warm {
		// Warm the directory once, outside the timed region: the one-time
		// cost every long-running job has already paid before it restarts.
		dir = b.TempDir()
		srv := start(dir)
		fetch(srv, nil)
		if err := srv.FlushDiskCache(); err != nil {
			b.Fatal(err)
		}
		srv.Close()
	}

	totalBatches := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		srv := start(dir)
		var st FetchStats
		fetch(srv, &st)
		totalBatches += st.Batches
		srv.Close()
	}
	b.StopTimer()
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(totalBatches)/sec, "batches/sec")
	}
}

// benchBatch builds a materialize-sized wire batch (the shape the serving hot
// path encodes): 64 samples, one 64x3x32x32 u8 tensor payload.
func benchBatch() *Batch {
	idx := make([]int, 64)
	lab := make([]int, 64)
	for i := range idx {
		idx[i] = i
		lab[i] = i % 7
	}
	return &Batch{
		Epoch:    0,
		GlobalID: 3,
		Indices:  idx,
		Labels:   lab,
		Dtype:    tensor.Uint8,
		Shape:    []int{64, 3, 32, 32},
		U8:       make([]byte, 64*3*32*32),
	}
}

// BenchmarkEncodeBatch is the allocating encoder: one fresh buffer per frame.
func BenchmarkEncodeBatch(b *testing.B) {
	m := benchBatch()
	b.SetBytes(int64(batchWireSize(m)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		EncodeBatch(m)
	}
}

// BenchmarkEncodeBatchPooled is the serving hot path's pooled encoder; after
// warmup it must run at zero allocations per frame (guarded by
// TestEncodeBatchFramePooledAllocs).
func BenchmarkEncodeBatchPooled(b *testing.B) {
	m := benchBatch()
	b.SetBytes(int64(batchWireSize(m)))
	b.ReportAllocs()
	for i := 0; i < 16; i++ {
		encodeBatchFrame(m).Release() // warm the size class
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		encodeBatchFrame(m).Release()
	}
}

// BenchmarkSessionFootprint reports the marginal per-session cost of the
// serving tier: heap bytes and goroutines per connected-but-idle session and
// per session that has streamed (and therefore owns lazily-built pipeline
// state: hooks, engine, dataset view, trace-pid base). scripts/bench.sh
// captures both series into BENCH_PR10.json — the session-slimming
// regression gauge for O(1000)-session serving.
func BenchmarkSessionFootprint(b *testing.B) {
	b.Run("idle", func(b *testing.B) { benchSessionFootprint(b, false) })
	b.Run("streaming", func(b *testing.B) { benchSessionFootprint(b, true) })
}

func benchSessionFootprint(b *testing.B, streamed bool) {
	const n = 128
	spec := workloads.ICSpec(1280, 7)
	spec.BatchSize = 64
	spec.NumWorkers = 1
	srv := New(Config{Spec: spec, Mode: pipeline.Simulated, Prefetch: 2,
		BatchCacheBytes: 64 << 20})
	if err := srv.Start("127.0.0.1:0", ""); err != nil {
		b.Fatal(err)
	}
	defer srv.Close()

	measure := func() (heap int64, goroutines int) {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc), runtime.NumGoroutine()
	}
	heap0, g0 := measure()

	clients := make([]*Client, n)
	for rank := range clients {
		clients[rank] = NewClient(ClientConfig{Addr: srv.Addr(), Rank: rank, World: n,
			Name: fmt.Sprintf("fp-%d", rank)})
		if err := clients[rank].Connect(); err != nil {
			b.Fatal(err)
		}
		defer clients[rank].Close()
	}
	if streamed {
		var wg sync.WaitGroup
		for _, c := range clients {
			wg.Add(1)
			go func(c *Client) {
				defer wg.Done()
				if _, err := c.Run(1, nil); err != nil {
					b.Error(err)
				}
			}(c)
		}
		wg.Wait()
	}

	heap1, g1 := measure()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// The reported metrics are gauges measured in setup; nothing to time.
	}
	b.StopTimer()
	b.ReportMetric(float64(heap1-heap0)/n, "bytes/session")
	b.ReportMetric(float64(g1-g0)/n, "goroutines/session")
}

// BenchmarkSessionScaling is bench stage 9's throughput axis: every client
// is an independent full-plan session (rank 0, world 1) against a
// cache-warmed server, so aggregate served batches/sec isolates the
// session-scalability hot path — admission, shared plans, cache fan-out,
// coalesced writes — from pipeline compute. The client-side stream checksum
// enforces byte-identity to the clients=1 ground truth on every session.
// scripts/bench.sh gates clients=256 aggregate at >= 0.8x clients=8.
func BenchmarkSessionScaling(b *testing.B) {
	for _, clients := range []int{8, 64, 256, 1024} {
		b.Run(fmt.Sprintf("clients=%d", clients), func(b *testing.B) {
			benchSessionScaling(b, clients)
		})
	}
}

func benchSessionScaling(b *testing.B, clients int) {
	spec := workloads.ICSpec(1280, 7)
	spec.BatchSize = 64 // 20 batches per full plan
	spec.NumWorkers = 1
	srv := New(Config{Spec: spec, Mode: pipeline.Simulated, Prefetch: 4,
		BatchCacheBytes: 256 << 20, MaxSessions: 2048})
	if err := srv.Start("127.0.0.1:0", ""); err != nil {
		b.Fatal(err)
	}
	defer srv.Close()

	conns := make([]*Client, clients)
	for i := range conns {
		conns[i] = NewClient(ClientConfig{Addr: srv.Addr(),
			Name: fmt.Sprintf("scale-%d", i)})
		if err := conns[i].Connect(); err != nil {
			b.Fatal(err)
		}
		defer conns[i].Close()
	}
	// Warm the batch cache once so the timed region measures the serving
	// tier, not the pipeline.
	if err := conns[0].fetchEpoch(0, nil, nil); err != nil {
		b.Fatal(err)
	}

	var totalBatches atomic.Int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		for _, c := range conns {
			wg.Add(1)
			go func(c *Client) {
				defer wg.Done()
				var st FetchStats
				if err := c.fetchEpoch(0, nil, &st); err != nil {
					b.Error(err)
					return
				}
				totalBatches.Add(int64(st.Batches))
			}(c)
		}
		wg.Wait()
	}
	b.StopTimer()
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(totalBatches.Load())/sec, "batches/sec")
	}
}

// BenchmarkTenantFairness is bench stage 9's fairness axis: three polite
// tenants at 4 sessions each share the server with one greedy tenant at 12,
// every session streaming full epochs back to back. It runs in both regimes
// — cached (the warmed batch cache serves every frame, and the pacer carries
// fairness) and uncached (BatchCacheBytes 0: every batch is computed, and the
// compute gate carries it) — each with QoS off and then on. Batches are
// counted per session as the client delivers them (onBatch), over windows of
// at least 2s that also run until every session has received 20 batches, so
// the index is not quantized by whole epochs. It reports:
//
//   - jain: the worst window's Jain index over per-tenant batches (1.0 = the
//     greedy tenant gained nothing by over-subscribing; 0.75 = its 3x
//     sessions bought 3x service);
//   - polite_ratio (qos=on only): the polite tenants' batches/s with QoS
//     divided by their batches/s in the qos=off run just before it. A
//     scheduler that throttles everyone can score 1.0 on jain but fails
//     here.
//
// scripts/bench.sh and CI gate jain >= 0.9 and polite_ratio >= 0.9 on both
// qos=on sub-benchmarks.
func BenchmarkTenantFairness(b *testing.B) {
	for _, regime := range []struct {
		name       string
		cacheBytes int64
	}{{"cached", 256 << 20}, {"uncached", 0}} {
		b.Run(regime.name, func(b *testing.B) {
			var politeOff float64
			b.Run("qos=off", func(b *testing.B) {
				politeOff = benchTenantFairness(b, regime.cacheBytes, false)
			})
			b.Run("qos=on", func(b *testing.B) {
				politeOn := benchTenantFairness(b, regime.cacheBytes, true)
				if politeOff > 0 {
					b.ReportMetric(politeOn/politeOff, "polite_ratio")
				}
			})
		})
	}
}

// benchTenantFairness runs one fairness cell and returns the polite tenants'
// aggregate batches/s over its windows.
func benchTenantFairness(b *testing.B, cacheBytes int64, qos bool) float64 {
	const (
		politeTenants  = 3
		politeSessions = 4
		greedySessions = 3 * politeSessions
		tenants        = politeTenants + 1
		minWindow      = 2 * time.Second
		minBatches     = 20 // per session per window
	)
	spec := workloads.ICSpec(1280, 7)
	spec.BatchSize = 64
	spec.NumWorkers = 1
	srv := New(Config{Spec: spec, Mode: pipeline.Simulated, Prefetch: 4,
		BatchCacheBytes: cacheBytes, QoS: qos})
	if err := srv.Start("127.0.0.1:0", ""); err != nil {
		b.Fatal(err)
	}
	defer srv.Close()

	type sess struct {
		tenant  int
		c       *Client
		batches atomic.Int64
	}
	var sessions []*sess
	for t := 0; t < tenants; t++ {
		name, count := fmt.Sprintf("polite-%d", t), politeSessions
		if t == politeTenants {
			name, count = "greedy", greedySessions
		}
		for i := 0; i < count; i++ {
			c := NewClient(ClientConfig{Addr: srv.Addr(),
				Name: fmt.Sprintf("%s-%d", name, i), Tenant: name})
			if err := c.Connect(); err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			sessions = append(sessions, &sess{tenant: t, c: c})
		}
	}
	if cacheBytes > 0 {
		if err := sessions[0].c.fetchEpoch(0, nil, nil); err != nil {
			b.Fatal(err) // warm the cache outside the windows
		}
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, s := range sessions {
		wg.Add(1)
		go func(s *sess) {
			defer wg.Done()
			count := func(*Batch, []byte) { s.batches.Add(1) }
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := s.c.fetchEpoch(0, count, nil); err != nil {
					b.Error(err)
					return
				}
			}
		}(s)
	}
	defer func() {
		close(stop)
		wg.Wait()
	}()
	snapshot := func() []int64 {
		out := make([]int64, len(sessions))
		for i, s := range sessions {
			out[i] = s.batches.Load()
		}
		return out
	}
	time.Sleep(250 * time.Millisecond) // every session past its first request

	worstJain := 1.0
	var total, polite int64
	var elapsed time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0, before := time.Now(), snapshot()
		time.Sleep(minWindow)
		var after []int64
		for {
			after = snapshot()
			least := int64(math.MaxInt64)
			for si := range after {
				least = min(least, after[si]-before[si])
			}
			if least >= minBatches {
				break
			}
			if time.Since(t0) > 30*time.Second {
				b.Fatalf("a session received %d batches in 30s, want %d", least, minBatches)
			}
			time.Sleep(50 * time.Millisecond)
		}
		elapsed += time.Since(t0)
		xs := make([]float64, tenants)
		for si, s := range sessions {
			d := after[si] - before[si]
			xs[s.tenant] += float64(d)
			total += d
			if s.tenant < politeTenants {
				polite += d
			}
		}
		worstJain = min(worstJain, JainIndex(xs))
	}
	b.StopTimer()
	b.ReportMetric(worstJain, "jain")
	b.ReportMetric(float64(total)/elapsed.Seconds(), "batches/sec")
	return float64(polite) / elapsed.Seconds()
}
