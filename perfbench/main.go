// Command perfbench is the repository's end-to-end benchmark. It serves the
// augmented image-classification spec (ICA) in RealData mode from a real
// serve.Server to serve.Client trainers in the same process, over loopback
// TCP, with real pixels. Load is closed-loop: each trainer requests its next
// epoch as soon as the previous EpochEnd arrives.
//
// Run from the repository root (run.sh builds it first):
//
//	bash perfbench/run.sh --workload cold-real --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it prints
// the per-layer breakdown, measured from outside the program by timing calls
// into the modules' public functions and by reading the records and counters
// the server exposes. The last line of standard output is one JSON object;
// the exit code is non-zero when a correctness check or a workload
// self-check fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// scratchRoot holds every file a run writes (disk-tier directories, scratch
// stores); it sits under the checkout and is deleted when the run ends.
const scratchRoot = ".bench_build"

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: cold-real, cached-fanout or augment-spill")
	seed := flag.Int64("seed", 1, "seed of the dataset records, shuffle plan and augmentation streams")
	seconds := flag.Int("seconds", 10, "length of the timed window in seconds")
	traced := flag.Int("trace", 0, "0 reports end-to-end metrics, 1 the per-layer breakdown")
	flag.Parse()
	w, ok := workloadByName(*name)
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad flags (workload %q, seconds %d, trace %d)\n", *name, *seconds, *traced)
		os.Exit(2)
	}
	if err := os.MkdirAll(scratchRoot, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	scratch, err := os.MkdirTemp(scratchRoot, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		os.RemoveAll(scratch)
		os.Exit(1)
	}()

	b := &bench{w: w, spec: icaSpec(*seed), seconds: time.Duration(*seconds) * time.Second, scratch: scratch}
	var res *result
	if *traced == 1 {
		res, err = b.traced()
	} else {
		res, err = b.untraced()
	}
	os.RemoveAll(scratch)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if *traced == 0 {
		printMetrics(res.Metrics)
	}
	fmt.Printf("failed_frac %.4f (%d of %d batches requested)\n",
		float64(res.Failed)/float64(max(res.Attempted, 1)), res.Failed, res.Attempted)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// untraced measures the end-to-end metrics. Set-up runs setupRuns times on
// fresh servers and reports the median; the last set-up serves the timed
// window.
func (b *bench) untraced() (*result, error) {
	var setups []float64
	var e *env
	for i := 0; i < setupRuns; i++ {
		if e != nil {
			e.close()
			runtime.GC() // so the next set-up does not stack on this one's heap
		}
		var d time.Duration
		var err error
		if e, d, err = b.setup(defaultRing); err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
	}
	win, err := b.timed(e)
	e.close()
	if err != nil {
		return nil, err
	}
	res, err := b.verify(win)
	if err != nil {
		return nil, err
	}
	e2e := win.endToEnd()
	e2e["setup_s"] = metric{median(setups), "s"}
	res.Metrics = e2e
	return res, nil
}

// traced measures the per-layer breakdown: an untraced window and a traced
// window (a ring large enough to keep every record of the run), each half
// of --seconds on a fresh server, then the isolated per-layer costs on the
// workload's own inputs.
func (b *bench) traced() (*result, error) {
	b.seconds /= 2
	plain, err := b.window(defaultRing)
	if err != nil {
		return nil, err
	}
	win, err := b.window(tracedRing)
	if err != nil {
		return nil, err
	}
	iso, err := b.isolated()
	if err != nil {
		return nil, err
	}
	res, err := b.verify(plain, win)
	if err != nil {
		return nil, err
	}
	layers := b.layers(win, iso)
	untracedRate := plain.endToEnd()["samples_per_s"].Value
	tracedRate := win.endToEnd()["samples_per_s"].Value
	layers["model.trace_overhead_frac"] = 1 - tracedRate/untracedRate
	b.report(layers, iso)
	res.Metrics = make(map[string]metric, len(layerMetrics))
	for _, m := range layerMetrics {
		res.Metrics[m.name] = metric{layers[m.name], m.unit}
	}
	return res, nil
}

// window sets up once and runs one timed window.
func (b *bench) window(ring int) (*window, error) {
	e, _, err := b.setup(ring)
	if err != nil {
		return nil, err
	}
	win, err := b.timed(e)
	e.close()
	return win, err
}

func printMetrics(ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-34s %14.4f %s\n", n, ms[n].Value, ms[n].Unit)
	}
}
