package main

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"sync"
	"syscall"
	"time"

	"lotus/internal/core/trace"
	"lotus/internal/pipeline"
	"lotus/internal/serve"
	"lotus/internal/tensor"
	"lotus/internal/workloads"
)

// The ROADMAP baseline settings every workload shares.
const (
	numSamples     = 256
	batchSize      = 16
	numWorkers     = 4
	materializeDim = 224
	// outDim is the side of the ICA spec's output crop.
	outDim = 224

	// setupRuns is how many times an untraced run sets up a fresh server;
	// setup_s is their median.
	setupRuns = 3
	// sampleCacheBytes holds every sample's 256x256 RGB prefix twice over.
	sampleCacheBytes = 2 * numSamples * 256 * 256 * 3
	// cachedEpochs is the working set cached-fanout streams.
	cachedEpochs = 1
	// defaultRing is serve.Config's default ring; tracedRing keeps every
	// record of a ten-second window with room to spare.
	defaultRing = 16384
	tracedRing  = 1 << 18
)

// icaSpec is the ICA spec at the baseline settings. The seed sets the
// dataset records, the shuffle plan and the augmentation streams; the server
// receives only this spec.
func icaSpec(seed int64) workloads.Spec {
	spec := workloads.ICASpec(numSamples, seed)
	spec.BatchSize = batchSize
	spec.NumWorkers = numWorkers
	return spec
}

// workload is one traffic mix. The reasons for each live in BENCHMARK.json.
type workload struct {
	name     string
	trainers int
	// warm lists the epochs one trainer fetches during set-up.
	warm []int
	// timedEpoch is the k-th epoch each trainer requests once timing starts.
	timedEpoch func(k int) int
	// configure turns the cache tiers on; frame is one batch frame's size.
	configure func(cfg *serve.Config, frame int64, dir string)
	// The layers a delivered batch pays for in the timed window: computes
	// means the DataLoader (only its random suffix when prefixCached) and
	// the frame encode run; disk means every frame is written to the store.
	computes, prefixCached, disk bool
	// check is the self-check that the counters defining the workload hold.
	check func(win *window) error
}

var allWorkloads = []workload{
	{
		// The preprocessing-bound IC case: no cache tier, one trainer
		// streaming epochs it has never seen.
		name: "cold-real", trainers: 1,
		warm:       []int{0},
		timedEpoch: func(k int) int { return 1 + k },
		configure:  func(*serve.Config, int64, string) {},
		computes:   true,
		check:      checkColdReal,
	},
	{
		// The batch cache holds the whole working set, filled in set-up;
		// two trainers re-stream it, so the pipeline does no work.
		name: "cached-fanout", trainers: 2,
		warm:       seq(cachedEpochs),
		timedEpoch: func(k int) int { return k % cachedEpochs },
		configure: func(cfg *serve.Config, frame int64, _ string) {
			cfg.BatchCacheBytes = (cachedEpochs*numSamples/batchSize + 1) * frame
		},
		check: checkCachedFanout,
	},
	{
		// Set-up fills the sample cache; two trainers request the same new
		// epoch together, so every batch is one batch-cache write and
		// sample-cache reads, and the second trainer rides the first one's
		// claim. The batch cache holds two epochs: enough that a trainer
		// lagging the other by up to an epoch still finds every frame, far
		// less than the run. Every frame spills to the disk tier, whose
		// budget of four epochs is below what the run writes but above
		// the batch cache, so evicted frames are still on disk and are not
		// written twice.
		name: "augment-spill", trainers: 2,
		warm:       []int{0},
		timedEpoch: func(k int) int { return 1 + k },
		configure: func(cfg *serve.Config, frame int64, dir string) {
			epoch := numSamples / batchSize * frame
			cfg.BatchCacheBytes = 2 * epoch
			cfg.SampleCacheBytes = sampleCacheBytes
			cfg.DiskCacheDir = dir
			cfg.DiskCacheBytes = 4 * epoch
		},
		computes: true, prefixCached: true, disk: true,
		check: checkAugmentSpill,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range allWorkloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func seq(n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = i
	}
	return s
}

type bench struct {
	w       workload
	spec    workloads.Spec
	seconds time.Duration
	scratch string
}

// planIDs is every global batch id of one epoch plan.
func (b *bench) planIDs() []int {
	n := len(pipeline.BuildBatchPlan(b.spec.NumSamples, b.spec.BatchSize, b.spec.Shuffle, false, b.spec.Seed))
	return seq(n)
}

// frameBytes is the encoded size of one full ICA batch frame.
func frameBytes() int64 {
	shape := []int{batchSize, 3, outDim, outDim}
	return int64(len(serve.EncodeBatch(&serve.Batch{
		Indices: make([]int, batchSize), Labels: make([]int, batchSize),
		Dtype: tensor.Float32, Shape: shape, F32: make([]float32, batchSize*3*outDim*outDim),
	})))
}

// env is one set-up server with its connected trainers.
type env struct {
	srv     *serve.Server
	clients []*serve.Client
	dir     string
}

func (e *env) close() {
	for _, c := range e.clients {
		c.Close()
	}
	e.srv.Close()
	if e.dir != "" {
		os.RemoveAll(e.dir)
	}
}

// setup starts a fresh server on an empty disk-tier directory, connects the
// trainers and fetches the warm-up epochs. The returned duration is setup_s.
func (b *bench) setup(ring int) (*env, time.Duration, error) {
	frame := frameBytes()
	start := time.Now()
	e := &env{}
	if b.w.disk {
		dir, err := os.MkdirTemp(b.scratch, "store-")
		if err != nil {
			return nil, 0, err
		}
		e.dir = dir
	}
	cfg := serve.Config{Spec: b.spec, Mode: pipeline.RealData, MaterializeDim: materializeDim, RingSize: ring}
	b.w.configure(&cfg, frame, e.dir)
	e.srv = serve.New(cfg)
	if err := e.srv.Start("127.0.0.1:0", ""); err != nil {
		os.RemoveAll(e.dir)
		return nil, 0, err
	}
	for i := 0; i < b.w.trainers; i++ {
		c := serve.NewClient(serve.ClientConfig{Addr: e.srv.Addr(), Name: fmt.Sprintf("trainer-%d", i)})
		e.clients = append(e.clients, c)
		if err := c.Connect(); err != nil {
			e.close()
			return nil, 0, fmt.Errorf("setup: connect: %w", err)
		}
	}
	ids := b.planIDs()
	for _, ep := range b.w.warm {
		if err := e.clients[0].FetchShard(ep, ids, nil); err != nil {
			e.close()
			return nil, 0, fmt.Errorf("setup: warm epoch %d: %w", ep, err)
		}
	}
	return e, time.Since(start), nil
}

// arrival is one batch as a trainer received it.
type arrival struct {
	epoch, gid, samples int
	at                  time.Time
	sum                 uint32 // content hash, see batchHash
}

// epochRun is one epoch request of one trainer.
type epochRun struct {
	epoch    int
	ids      []int
	req      time.Time
	arrivals []arrival
	err      error
}

// window is one timed run: t0..t1 is the measured window of --seconds;
// trainers finish the epoch they are in, so the counters, taken at t0 and
// once every trainer has finished, cover whole epochs.
type window struct {
	t0, t1        time.Time
	runs          [][]epochRun // per trainer
	cpu           time.Duration
	maxRSSKB      int64
	before, after serve.MetricsSnapshot
	records       []trace.Record // ring records added in the same span
	ringOverflow  bool
	planLen       int
}

// timed runs the closed-loop trainers for the window and snapshots the
// server's counters and ring around it.
func (b *bench) timed(e *env) (*window, error) {
	ids := b.planIDs()
	win := &window{runs: make([][]epochRun, len(e.clients)), planLen: len(ids)}
	// Every window starts from a collected heap, whatever set-up left.
	runtime.GC()
	ring := e.srv.Ring()
	total0 := ring.Total()
	win.before = e.srv.Snapshot(time.Now())
	cpu0 := cpuTime()
	win.t0 = time.Now()
	win.t1 = win.t0.Add(b.seconds)
	fired := make(chan struct{})
	time.AfterFunc(b.seconds, func() {
		win.cpu = cpuTime() - cpu0
		win.maxRSSKB = maxRSSKB()
		close(fired)
	})
	var wg sync.WaitGroup
	for i, c := range e.clients {
		wg.Add(1)
		go func(i int, c *serve.Client) {
			defer wg.Done()
			for k := 0; time.Now().Before(win.t1); k++ {
				win.runs[i] = append(win.runs[i], fetch(c, b.w.timedEpoch(k), ids))
			}
		}(i, c)
	}
	wg.Wait()
	<-fired
	win.after = e.srv.Snapshot(time.Now())
	added := ring.Total() - total0
	win.ringOverflow = added > int64(ring.Len())
	if added > 0 {
		all := ring.Snapshot()
		win.records = all[len(all)-int(min(added, int64(len(all)))):]
	}
	if win.endToEnd()["samples_per_s"].Value == 0 {
		return nil, errors.New("no batch arrived in the timed window")
	}
	if err := b.w.check(win); err != nil {
		return nil, fmt.Errorf("%s self-check: %w", b.w.name, err)
	}
	return win, nil
}

// fetch requests one whole epoch and records every batch's arrival time and
// content hash. A failed request is recorded, not retried.
func fetch(c *serve.Client, epoch int, ids []int) epochRun {
	r := epochRun{epoch: epoch, ids: ids, req: time.Now()}
	r.err = c.FetchShard(epoch, ids, func(m *serve.Batch, _ []byte) {
		at := time.Now()
		r.arrivals = append(r.arrivals, arrival{epoch: m.Epoch, gid: m.GlobalID,
			samples: len(m.Indices), at: at, sum: wireBatchHash(m)})
	})
	return r
}

// endToEnd computes the end-to-end metrics other than setup_s.
func (win *window) endToEnd() map[string]metric {
	in := func(t time.Time) bool { return !t.Before(win.t0) && !t.After(win.t1) }
	samples := 0
	last := win.t0
	var gaps, firsts []float64
	for _, runs := range win.runs {
		for _, r := range runs {
			for i, a := range r.arrivals {
				if !in(a.at) {
					continue
				}
				samples += a.samples
				if a.at.After(last) {
					last = a.at
				}
				if i > 0 && in(r.arrivals[i-1].at) {
					gaps = append(gaps, ms(a.at.Sub(r.arrivals[i-1].at)))
				}
			}
			if in(r.req) && len(r.arrivals) > 0 {
				firsts = append(firsts, ms(r.arrivals[0].at.Sub(r.req)))
			}
		}
	}
	// Throughput runs to the last arrival, not to t1, so that it does not
	// step by whole batches.
	rate := 0.0
	if samples > 0 {
		rate = float64(samples) / last.Sub(win.t0).Seconds()
	}
	return map[string]metric{
		"samples_per_s":     {rate, "samples/s"},
		"batch_gap_p50_ms":  {quantile(gaps, 0.5), "ms"},
		"batch_gap_p90_ms":  {quantile(gaps, 0.9), "ms"},
		"first_batch_ms":    {quantile(firsts, 0.5), "ms"},
		"cpu_ms_per_sample": {ms(win.cpu) / float64(max(samples, 1)), "ms"},
		"peak_rss_mb":       {float64(win.maxRSSKB) / 1024, "MB"},
	}
}

// distinctBatches counts the (epoch, batch) pairs the trainers requested.
func (win *window) distinctBatches() int {
	seen := map[[2]int]bool{}
	for _, runs := range win.runs {
		for _, r := range runs {
			for _, id := range r.ids {
				seen[[2]int{r.epoch, id}] = true
			}
		}
	}
	return len(seen)
}

func (win *window) opRecords(kind trace.Kind) int {
	n := 0
	for _, r := range win.records {
		if r.Kind == kind {
			n++
		}
	}
	return n
}

func checkColdReal(win *window) error {
	if win.after.Cache != nil || win.after.SampleCache != nil || win.after.DiskCache != nil {
		return errors.New("a cache tier is active")
	}
	return nil
}

func checkCachedFanout(win *window) error {
	if win.after.Cache == nil {
		return errors.New("batch cache is off")
	}
	if r := batchHitRatio(win); r != 1 {
		return fmt.Errorf("batch cache hit ratio %.4f, want 1", r)
	}
	if n := win.opRecords(trace.KindBatchPreprocessed); n != 0 {
		return fmt.Errorf("%d pipeline T1 records in the timed window, want 0", n)
	}
	return nil
}

func checkAugmentSpill(win *window) error {
	if win.after.Cache == nil || win.after.SampleCache == nil || win.after.DiskCache == nil {
		return errors.New("a cache tier is off")
	}
	if c := computesPerBatch(win); c != 1 {
		return fmt.Errorf("batch cache computes per batch %.4f, want 1", c)
	}
	if r := sampleHitRatio(win); r != 1 {
		return fmt.Errorf("sample cache hit ratio %.4f after setup, want 1", r)
	}
	d0, d1 := win.before.DiskCache, win.after.DiskCache
	if d1.Spills-d0.Spills <= 0 {
		return errors.New("no store puts")
	}
	if d1.SegmentsEvicted-d0.SegmentsEvicted <= 0 {
		return errors.New("no store segment evictions")
	}
	return nil
}

// batchHitRatio is batch-cache hits over lookups (hits, misses and
// single-flight waits) in the timed run.
func batchHitRatio(win *window) float64 {
	c0, c1 := win.before.Cache, win.after.Cache
	if c1 == nil {
		return 0
	}
	hits := c1.Hits - c0.Hits
	return ratio(hits, hits+c1.Misses-c0.Misses+c1.SingleflightWait-c0.SingleflightWait)
}

// computesPerBatch is batch-cache misses (pipeline runs) per distinct batch
// requested in the timed run.
func computesPerBatch(win *window) float64 {
	if win.after.Cache == nil {
		return 0
	}
	return ratio(win.after.Cache.Misses-win.before.Cache.Misses, int64(win.distinctBatches()))
}

func sampleHitRatio(win *window) float64 {
	c0, c1 := win.before.SampleCache, win.after.SampleCache
	if c1 == nil {
		return 0
	}
	hits := c1.Hits - c0.Hits
	return ratio(hits, hits+c1.Misses-c0.Misses+c1.SingleflightWait-c0.SingleflightWait+c1.Bypassed-c0.Bypassed)
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func maxRSSKB() int64 {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru.Maxrss
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
