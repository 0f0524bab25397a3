package serve

import (
	"sync"
	"sync/atomic"
	"time"

	"lotus/internal/control"
	"lotus/internal/core/trace"
	"lotus/internal/pipeline"
)

// This file is the server-side driver of the internal/control loop: it
// assembles Signals from counters the server already exports (the trace
// ring's T2 wait records, the per-session prefetch-queue gauges, the three
// cache tiers' stats) and applies the controller's Actions to the live
// knobs — pipeline worker count and prefetch factor for epochs in flight
// and epochs to come, and the byte budgets of the batch, sample, and disk
// caches.
//
// The tick point is epoch completion (after Metrics.AddEpoch), and the
// controller keys every decision off the epochs-served counter, so in sim
// mode the loop is deterministic: the same workload history produces the
// same action sequence, and no goroutine samples the wall clock to decide
// anything.

// controlPID is the trace PID actuation records are filed under; it sits
// below every run's private pid window (run pids are pipeline.MainPID plus
// a multiple of the derived stride, so never below pipeline.MainPID = 4000)
// and controller spans can never collide with pipeline spans.
const controlPID = 999

// tuner binds one Server to one control.Controller.
type tuner struct {
	srv      *Server
	ctrl     *control.Controller
	longWait time.Duration

	// workers/prefetch mirror the controller's pipeline knobs for lock-free
	// reads on the run-start path (runPlan).
	workers  atomic.Int64
	prefetch atomic.Int64

	// loaders is the registry of DataLoaders currently running an epoch;
	// a worker-count action resizes them mid-epoch via RequestResize.
	mu      sync.Mutex
	loaders map[*pipeline.DataLoader]struct{}
}

func newTuner(s *Server, cfg control.Config, longWait time.Duration) *tuner {
	spec := s.cfg.Spec
	initial := control.Knobs{
		Workers:     spec.NumWorkers,
		Prefetch:    spec.Prefetch,
		BatchBytes:  s.cfg.BatchCacheBytes,
		SampleBytes: s.cfg.SampleCacheBytes,
		DiskBytes:   s.cfg.DiskCacheBytes,
	}
	if initial.Workers <= 0 {
		initial.Workers = pipeline.DefaultAutoWorkers
	}
	if initial.Prefetch <= 0 {
		initial.Prefetch = 2
	}
	if longWait <= 0 {
		longWait = 500 * time.Millisecond
	}
	t := &tuner{
		srv:      s,
		ctrl:     control.NewController(cfg, initial),
		longWait: longWait,
		loaders:  make(map[*pipeline.DataLoader]struct{}),
	}
	knobs := t.ctrl.Knobs()
	t.workers.Store(int64(knobs.Workers))
	t.prefetch.Store(int64(knobs.Prefetch))
	return t
}

// pipelineKnobs reads the current worker/prefetch targets for a starting
// epoch pipeline.
func (t *tuner) pipelineKnobs() (workers, prefetch int) {
	return int(t.workers.Load()), int(t.prefetch.Load())
}

func (t *tuner) register(dl *pipeline.DataLoader) {
	t.mu.Lock()
	t.loaders[dl] = struct{}{}
	t.mu.Unlock()
}

func (t *tuner) unregister(dl *pipeline.DataLoader) {
	t.mu.Lock()
	delete(t.loaders, dl)
	t.mu.Unlock()
}

// observe is the control tick: called by whichever session goroutine just
// completed an epoch. It snapshots the signals, runs the controller, and
// applies every returned action.
func (t *tuner) observe() {
	for _, a := range t.ctrl.Observe(t.signals()) {
		t.apply(a)
	}
}

// signals assembles one observation from the server's live counters.
func (t *tuner) signals() control.Signals {
	s := t.srv
	sig := control.Signals{Counter: s.metrics.EpochsServed()}

	// T2 wait window: every KindBatchWait record still in the ring.
	var waitSum time.Duration
	var long int64
	for _, r := range s.ring.Snapshot() {
		if r.Kind != trace.KindBatchWait {
			continue
		}
		sig.WaitCount++
		waitSum += r.Dur
		if r.Dur >= t.longWait {
			long++
		}
	}
	if sig.WaitCount > 0 {
		sig.LongWaitFrac = float64(long) / float64(sig.WaitCount)
		sig.MeanWait = waitSum / time.Duration(sig.WaitCount)
	}
	sig.QueueFill = s.metrics.QueueFill(s.cfg.Prefetch)

	if st, ok := s.CacheStats(); ok {
		sig.Batch = control.CacheSignals{Enabled: true, Hits: st.Hits, Misses: st.Misses,
			Evictions: st.Evicted, BytesUsed: st.BytesUsed, BytesBudget: st.BytesBudget}
	}
	if st, ok := s.SampleCacheStats(); ok {
		sig.Sample = control.CacheSignals{Enabled: true, Hits: st.Hits, Misses: st.Misses,
			Evictions: st.Evicted, BytesUsed: st.BytesUsed, BytesBudget: st.BytesBudget}
	}
	if st, ok := s.DiskCacheStats(); ok {
		sig.Disk = control.CacheSignals{Enabled: true,
			Hits: st.BatchHits + st.SampleHits, Misses: st.BatchMisses + st.SampleMisses,
			Evictions: st.SegmentsEvicted, BytesUsed: st.BytesUsed, BytesBudget: st.BytesBudget}
	}
	return sig
}

// apply actuates one controller action: worker actions resize every live
// loader and retarget future epochs, prefetch actions take effect at the
// next epoch, cache actions retarget the tier's byte budget immediately.
// Every action lands in the trace ring as a `control` op so a /trace
// export shows exactly when the loop intervened.
func (t *tuner) apply(a control.Action) {
	switch a.Knob {
	case "workers":
		t.workers.Store(a.To)
		t.mu.Lock()
		for dl := range t.loaders {
			dl.RequestResize(int(a.To))
		}
		t.mu.Unlock()
	case "prefetch":
		t.prefetch.Store(a.To)
	case "cache.batch":
		if t.srv.cache != nil {
			t.srv.cache.SetBudget(a.To)
		}
	case "cache.sample":
		if t.srv.sampleCache != nil {
			t.srv.sampleCache.SetBudget(a.To)
		}
	case "cache.disk":
		if t.srv.disk != nil {
			t.srv.disk.SetBudget(a.To)
		}
	}
	t.srv.ring.Add(trace.Record{Kind: trace.KindOp, PID: controlPID,
		BatchID: int(a.Tick), SampleIndex: -1, Op: "control:" + a.Knob,
		Start: time.Now()})
	t.srv.cfg.Logf("lotus-serve: autotune: %s", a)
}

// ControlStats is the /metrics `control` block: current knob settings plus
// the full actuation history.
type ControlStats struct {
	Workers  int              `json:"workers"`
	Prefetch int              `json:"prefetch"`
	Actions  []control.Action `json:"actions"`
}

// ControlStats reports the autotuner's knobs and history; ok is false when
// autotuning is disabled.
func (s *Server) ControlStats() (ControlStats, bool) {
	if s.tuner == nil {
		return ControlStats{}, false
	}
	knobs := s.tuner.ctrl.Knobs()
	return ControlStats{
		Workers:  knobs.Workers,
		Prefetch: knobs.Prefetch,
		Actions:  s.tuner.ctrl.History(),
	}, true
}
