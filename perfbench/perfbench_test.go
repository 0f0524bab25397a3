package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"

	"lotus/internal/serve"
	"lotus/internal/tensor"
)

// TestFlippedByteIsCaught flips each byte of an encoded batch frame in turn:
// the flipped frame must either fail to decode or hash differently from the
// reference, and checkRun must count the batch as failed either way.
func TestFlippedByteIsCaught(t *testing.T) {
	m := &serve.Batch{Epoch: 3, GlobalID: 1, Indices: []int{7, 2}, Labels: []int{4, 9},
		Dtype: tensor.Float32, Shape: []int{2, 3, 2, 2}, F32: make([]float32, 24)}
	for i := range m.F32 {
		m.F32[i] = float32(i) / 7
	}
	ref := map[batchKey]uint32{{3, 1}: wireBatchHash(m)}
	clean := serve.EncodeBatch(m)
	run := func(payload []byte) epochRun {
		r := epochRun{epoch: 3, ids: []int{1}}
		msg, err := serve.DecodeMessage(payload)
		if got, ok := msg.(*serve.Batch); err == nil && ok {
			r.arrivals = []arrival{{epoch: got.Epoch, gid: got.GlobalID, samples: len(got.Indices), at: time.Now(), sum: wireBatchHash(got)}}
		} else {
			r.err = err
		}
		return r
	}
	if n := checkRun(run(clean), ref); n != 0 {
		t.Fatalf("clean frame counted %d failures", n)
	}
	for i := range clean {
		flipped := append([]byte(nil), clean...)
		flipped[i] ^= 0x01
		if n := checkRun(run(flipped), ref); n != 1 {
			t.Errorf("byte %d of %d flipped: %d failures counted, want 1", i, len(clean), n)
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the program in step:
// the same workloads, the end-to-end metrics an untraced run prints and the
// per-layer metrics a traced run prints, with the same units.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit, Better string }
	var doc struct {
		Workloads []entry
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(allWorkloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(doc.Workloads), len(allWorkloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != allWorkloads[i].name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the program", i, w.Name, allWorkloads[i].name)
		}
	}
	e2e := (&window{}).endToEnd()
	e2e["setup_s"] = metric{0, "s"}
	if len(doc.EndToEnd) != len(e2e) {
		t.Errorf("%d end-to-end metrics in BENCHMARK.json, %d in the program", len(doc.EndToEnd), len(e2e))
	}
	for _, m := range doc.EndToEnd {
		if got, ok := e2e[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("end-to-end %s (%s): program has %+v", m.Name, m.Unit, got)
		}
	}
	if len(doc.PerLayer) != len(layerMetrics) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the program", len(doc.PerLayer), len(layerMetrics))
	}
	for i, m := range doc.PerLayer {
		if want := layerMetrics[i]; m.Name != want.name || m.Unit != want.unit || m.Better != want.better {
			t.Errorf("per-layer %d: %+v in BENCHMARK.json, %s %s %s in the program", i, m, want.name, want.unit, want.better)
		}
	}
}

func TestQuantile(t *testing.T) {
	near := func(got, want float64) bool { return math.Abs(got-want) < 1e-9 }
	for _, x := range []float64{0.1, 0.3, 0.5, 0.9} {
		if got := betaInc(1, 1, x); !near(got, x) {
			t.Errorf("I_%g(1,1) = %g, want %g", x, got, x)
		}
		if got, want := betaInc(2, 2, x), 3*x*x-2*x*x*x; !near(got, want) {
			t.Errorf("I_%g(2,2) = %g, want %g", x, got, want)
		}
		if got, want := betaInc(40.5, 1, x), math.Pow(x, 40.5); !near(got, want) {
			t.Errorf("I_%g(40.5,1) = %g, want %g", x, got, want)
		}
	}
	if got := betaInc(455.4, 455.4, 0.5); !near(got, 0.5) {
		t.Errorf("I_0.5(a,a) = %g, want 0.5", got)
	}
	if got := quantile([]float64{7, 7, 7, 7}, 0.9); !near(got, 7) {
		t.Errorf("quantile of a constant = %g, want 7", got)
	}
	xs := make([]float64, 999)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for _, q := range []float64{0.5, 0.9} {
		if got, want := quantile(xs, q), q*1000; math.Abs(got-want) > 1 {
			t.Errorf("quantile(1..999, %g) = %g, want about %g", q, got, want)
		}
	}
	if got := median([]float64{3, 100, 1}); got != 3 {
		t.Errorf("median = %g, want 3", got)
	}
}
