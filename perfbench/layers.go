package main

import (
	"fmt"
	"net"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"lotus/internal/core/trace"
	"lotus/internal/pipeline"
	"lotus/internal/serve"
	"lotus/internal/store"
)

// layerMetric describes one per-layer metric: the module it measures, the
// end-to-end metrics it should move, and the workloads where it does most
// and little. BENCHMARK.json lists the same names, units and directions.
type layerMetric struct {
	name, unit, better string
	moves              string
	mostOn, littleOn   string
}

var layerMetrics = []layerMetric{
	{"pipeline.Loader_ms", "ms", "lower", "samples_per_s cpu_ms_per_sample", "cold-real", "augment-spill (prefix cached) cached-fanout"},
	{"pipeline.Resize_ms", "ms", "lower", "samples_per_s cpu_ms_per_sample", "cold-real", "augment-spill (prefix cached) cached-fanout"},
	{"pipeline.RandomCrop_ms", "ms", "lower", "samples_per_s cpu_ms_per_sample", "cold-real augment-spill", "cached-fanout"},
	{"pipeline.RandomHorizontalFlip_ms", "ms", "lower", "samples_per_s cpu_ms_per_sample", "cold-real augment-spill", "cached-fanout"},
	{"pipeline.RandomPixelNoise_ms", "ms", "lower", "samples_per_s cpu_ms_per_sample", "cold-real augment-spill", "cached-fanout"},
	{"pipeline.ToTensor_ms", "ms", "lower", "samples_per_s cpu_ms_per_sample", "cold-real augment-spill", "cached-fanout"},
	{"pipeline.Normalize_ms", "ms", "lower", "samples_per_s cpu_ms_per_sample", "cold-real augment-spill", "cached-fanout"},
	{"pipeline.Collate_ms", "ms", "lower", "samples_per_s cpu_ms_per_sample", "cold-real augment-spill", "cached-fanout"},
	{"serve.encode_ms", "ms", "lower", "cpu_ms_per_sample", "cold-real augment-spill", "cached-fanout (encoded in setup)"},
	{"serve.wire_ms", "ms", "lower", "samples_per_s batch_gap_p50_ms", "cached-fanout", "cold-real"},
	{"serve.decode_ms", "ms", "lower", "samples_per_s batch_gap_p50_ms", "cached-fanout", "cold-real"},
	{"store.put_ms", "ms", "lower", "cpu_ms_per_sample", "augment-spill", "cold-real cached-fanout (tier off)"},
	{"pipeline.fetch_ms", "ms", "lower", "batch_gap_p90_ms", "cold-real", "cached-fanout (no records)"},
	{"pipeline.wait_ms", "ms", "lower", "batch_gap_p90_ms", "cold-real", "cached-fanout (no records)"},
	{"pipeline.delay_ms", "ms", "lower", "batch_gap_p90_ms", "cold-real", "cached-fanout (no records)"},
	{"serve.handoff_p50_ms", "ms", "lower", "batch_gap_p50_ms first_batch_ms", "cached-fanout augment-spill", "-"},
	{"serve.batch_cache_hit_ratio", "ratio", "higher", "first_batch_ms samples_per_s", "augment-spill cached-fanout", "cold-real (off)"},
	{"serve.computes_per_batch", "ratio", "lower", "first_batch_ms samples_per_s", "augment-spill cached-fanout", "cold-real (off)"},
	{"pipeline.sample_cache_hit_ratio", "ratio", "higher", "samples_per_s", "augment-spill", "cold-real cached-fanout (off)"},
	{"serve.frames_per_writev", "ratio", "higher", "cpu_ms_per_sample", "all", "-"},
	{"store.spill_drop_frac", "ratio", "lower", "cpu_ms_per_sample samples_per_s", "augment-spill", "cold-real cached-fanout (off)"},
	{"store.bytes_written_per_sample", "bytes", "lower", "cpu_ms_per_sample samples_per_s", "augment-spill", "cold-real cached-fanout (off)"},
	{"model.predicted_samples_per_s", "samples/s", "higher", "- (diagnostic)", "all", "-"},
	{"model.cpu_explained_frac", "ratio", "higher", "- (diagnostic)", "all", "-"},
	{"model.trace_overhead_frac", "ratio", "lower", "- (diagnostic)", "all", "-"},
}

// pipelineOps are the ICA spec's ops in Table II order, with Collate.
var pipelineOps = []string{"Loader", "Resize", "RandomCrop", "RandomHorizontalFlip", "RandomPixelNoise", "ToTensor", "Normalize", "Collate"}

// isolation holds the isolated per-batch costs, in ms, of the layers on the
// workload's path; a layer off the path is absent.
type isolation map[string]float64

// isolated times the layers on the workload's path one call at a time on
// the workload's own inputs, LotusMap style: a one-worker DataLoader over
// the first timed epoch's plan (its OnOp records give the op costs), then
// serve.AppendBatch into a reused buffer, serve.WriteFrame to serve.ReadFrame
// over a loopback pair, serve.DecodeMessage, and store.Store.Put into a
// scratch store, per batch.
func (b *bench) isolated() (isolation, error) {
	epoch := b.w.timedEpoch(0)
	var sc *pipeline.SampleCache
	var fp uint64
	if b.w.prefixCached {
		fp, _ = serve.PrefixFingerprint(b.spec, pipeline.RealData, materializeDim)
		sc = pipeline.NewSampleCache(sampleCacheBytes, true)
		if err := b.loadEpoch(b.w.warm[0], 1, sc, fp, nil, func(*pipeline.Batch) {}); err != nil {
			return nil, fmt.Errorf("isolated: fill sample cache: %w", err)
		}
	}
	var mu sync.Mutex
	opTotal := map[string]time.Duration{}
	hooks := &pipeline.Hooks{OnOp: func(_, _, _ int, op string, _ time.Time, d time.Duration) {
		mu.Lock()
		opTotal[op] += d
		mu.Unlock()
	}}
	var batches []*pipeline.Batch
	if err := b.loadEpoch(epoch, 1, sc, fp, hooks, func(bt *pipeline.Batch) { batches = append(batches, bt) }); err != nil {
		return nil, fmt.Errorf("isolated: epoch %d: %w", epoch, err)
	}
	n := float64(len(batches))
	iso := isolation{}
	if b.w.computes {
		for _, op := range pipelineOps {
			if d, ok := opTotal[op]; ok {
				iso["pipeline."+op+"_ms"] = ms(d) / n
			}
		}
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer ln.Close()
	wconn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return nil, err
	}
	defer wconn.Close()
	rconn, err := ln.Accept()
	if err != nil {
		return nil, err
	}
	defer rconn.Close()
	type read struct {
		payload []byte
		at      time.Time
		err     error
	}
	// One slot per frame, so the reader never blocks on a sender that
	// returned early.
	reads := make(chan read, len(batches))
	go func() {
		defer close(reads)
		for range batches {
			p, err := serve.ReadFrame(rconn, 0)
			reads <- read{p, time.Now(), err}
			if err != nil {
				return
			}
		}
	}()

	var st *store.Store
	if b.w.disk {
		dir, err := os.MkdirTemp(b.scratch, "iso-store-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		if st, err = store.Open(dir, store.Options{}); err != nil {
			return nil, err
		}
		defer st.Close()
	}

	var encode, wire, decode, put time.Duration
	var buf []byte
	for i, bt := range batches {
		m := &serve.Batch{Epoch: epoch, GlobalID: bt.ID, Indices: bt.Indices, Labels: bt.Labels,
			Dtype: bt.Data.Dtype, Shape: bt.Data.Shape, U8: bt.Data.U8, F32: bt.Data.F32}
		t := time.Now()
		buf = serve.AppendBatch(buf[:0], m)
		encode += time.Since(t)

		t = time.Now()
		if err := serve.WriteFrame(wconn, buf); err != nil {
			return nil, fmt.Errorf("isolated: write frame: %w", err)
		}
		r := <-reads
		if r.err != nil {
			return nil, fmt.Errorf("isolated: read frame: %w", r.err)
		}
		wire += r.at.Sub(t)

		t = time.Now()
		msg, err := serve.DecodeMessage(r.payload)
		decode += time.Since(t)
		got, ok := msg.(*serve.Batch)
		if err != nil || !ok || wireBatchHash(got) != pipelineBatchHash(epoch, bt) {
			return nil, fmt.Errorf("isolated: batch %d does not round-trip (%v)", bt.ID, err)
		}

		if st != nil {
			t = time.Now()
			if err := st.Put(store.Key{Kind: store.KindBatch, FP: uint64(b.spec.Seed), A: uint64(epoch), B: uint64(bt.ID)}, buf); err != nil {
				return nil, fmt.Errorf("isolated: store put: %w", err)
			}
			put += time.Since(t)
		}
		batches[i] = nil
	}
	if b.w.computes {
		iso["serve.encode_ms"] = ms(encode) / n
	}
	iso["serve.wire_ms"] = ms(wire) / n
	iso["serve.decode_ms"] = ms(decode) / n
	if st != nil {
		iso["store.put_ms"] = ms(put) / n
	}
	return iso, nil
}

// pathCost is the isolated cost per delivered batch of each layer on the
// path, in ms. Every trainer requests the same batches and each is computed
// once (one trainer, or computes_per_batch = 1), so a delivery pays its
// share of the compute layers and the whole of wire and decode.
func (b *bench) pathCost(iso isolation) map[string]float64 {
	cost := map[string]float64{}
	for name, v := range iso {
		switch name {
		case "serve.wire_ms", "serve.decode_ms":
			cost[name] = v
		default:
			cost[name] = v / float64(b.w.trainers)
		}
	}
	return cost
}

// layers computes every per-layer metric (0 where it does not apply) from
// the isolated costs and the traced in-situ window.
func (b *bench) layers(win *window, iso isolation) map[string]float64 {
	out := map[string]float64{}
	for name, v := range iso {
		out[name] = v
	}
	if win.ringOverflow {
		fmt.Fprintln(os.Stderr, "perfbench: trace ring overflowed; in-situ records are partial")
	}

	// T1, T2 and preprocessed->consumed per produced batch, joined on the
	// trace batch id (epoch*planLen + global id).
	var fetch, wait, delay []float64
	preEnd := map[int]time.Time{}
	consumed := map[int]time.Time{}
	for _, r := range win.records {
		switch r.Kind {
		case trace.KindBatchPreprocessed:
			fetch = append(fetch, ms(r.Dur))
			preEnd[r.BatchID] = r.End()
		case trace.KindBatchWait:
			wait = append(wait, ms(r.Dur))
		case trace.KindBatchConsumed:
			consumed[r.BatchID] = r.End()
		}
	}
	for id, at := range consumed {
		if p, ok := preEnd[id]; ok {
			delay = append(delay, ms(at.Sub(p)))
		}
	}
	out["pipeline.fetch_ms"] = mean(fetch)
	out["pipeline.wait_ms"] = mean(wait)
	out["pipeline.delay_ms"] = mean(delay)

	var handoff []float64
	for _, runs := range win.runs {
		for _, r := range runs {
			for _, a := range r.arrivals {
				if at, ok := consumed[a.epoch*win.planLen+a.gid]; ok {
					handoff = append(handoff, ms(a.at.Sub(at)))
				}
			}
		}
	}
	out["serve.handoff_p50_ms"] = quantile(handoff, 0.5)

	out["serve.batch_cache_hit_ratio"] = batchHitRatio(win)
	out["serve.computes_per_batch"] = computesPerBatch(win)
	out["pipeline.sample_cache_hit_ratio"] = sampleHitRatio(win)
	out["serve.frames_per_writev"] = ratio(win.after.WritevFrames-win.before.WritevFrames,
		win.after.WritevCalls-win.before.WritevCalls)
	if d0, d1 := win.before.DiskCache, win.after.DiskCache; d1 != nil {
		spills := d1.Spills - d0.Spills
		dropped := d1.SpillsDropped - d0.SpillsDropped
		out["store.spill_drop_frac"] = ratio(dropped, spills+dropped+d1.SpillsDeduped-d0.SpillsDeduped)
		// Every record the timed run appends is one batch frame: the
		// sample cache hits throughout (checked), so no snapshot spills.
		out["store.bytes_written_per_sample"] = float64(spills*frameBytes()) / float64(max(win.deliveredSamples(), 1))
	}

	cost := b.pathCost(iso)
	sum := 0.0
	for _, v := range cost {
		sum += v
	}
	out["model.predicted_samples_per_s"] = float64(runtime.GOMAXPROCS(0)*b.spec.BatchSize) / (sum / 1000)
	cpuPerBatch := win.endToEnd()["cpu_ms_per_sample"].Value * float64(b.spec.BatchSize)
	out["model.cpu_explained_frac"] = sum / cpuPerBatch
	return out
}

// deliveredSamples counts every sample the trainers received in the timed
// run, window and epoch tails alike.
func (win *window) deliveredSamples() int64 {
	var n int64
	for _, runs := range win.runs {
		for _, r := range runs {
			for _, a := range r.arrivals {
				n += int64(a.samples)
			}
		}
	}
	return n
}

// report prints the Plumber-style per-layer table: each metric with its
// module, the end-to-end metrics it should move, the predicted rate, the
// largest-cost layer on the path and the share of CPU the model explains.
func (b *bench) report(layers map[string]float64, iso isolation) {
	fmt.Printf("per-layer report: workload %s (real regime), %d trainers, batch %d, %d workers, GOMAXPROCS %d\n",
		b.w.name, b.w.trainers, b.spec.BatchSize, b.spec.NumWorkers, runtime.GOMAXPROCS(0))
	fmt.Printf("%-34s %12s  %-9s %-8s %s\n", "metric", "value", "unit", "module", "should move | does most on | little on")
	for _, m := range layerMetrics {
		fmt.Printf("%-34s %12.4f  %-9s %-8s %s | %s | %s\n", m.name, layers[m.name], m.unit,
			strings.SplitN(m.name, ".", 2)[0], m.moves, m.mostOn, m.littleOn)
	}
	top, topCost := "-", 0.0
	for name, c := range b.pathCost(iso) {
		if c > topCost {
			top, topCost = name, c
		}
	}
	fmt.Printf("model: predicted %.1f samples/s; largest-cost layer %s (%.2f ms per delivered batch); CPU explained %.2f\n",
		layers["model.predicted_samples_per_s"], top, topCost, layers["model.cpu_explained_frac"])
}
