package serve

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"lotus/internal/control"
	"lotus/internal/pipeline"
	"lotus/internal/testutil"
	"lotus/internal/workloads"
)

// startServer is startTestServer with full Config control.
func startServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.Logf == nil {
		cfg.Logf = t.Logf
	}
	srv := New(cfg)
	if err := srv.Start("127.0.0.1:0", ""); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

// holdSession dials and completes a handshake, holding one admitted session
// slot until the returned conn is closed.
func holdSession(t *testing.T, srv *Server, name string) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	WriteFrame(conn, EncodeHello(Hello{Version: ProtocolVersion, World: 1, Name: name}))
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	payload, err := ReadFrame(conn, 0)
	if err != nil {
		t.Fatalf("%s handshake: %v", name, err)
	}
	if msg, err := DecodeMessage(payload); err != nil {
		t.Fatal(err)
	} else if _, ok := msg.(HelloAck); !ok {
		t.Fatalf("%s handshake: got %T, want HelloAck", name, msg)
	}
	conn.SetReadDeadline(time.Time{})
	return conn
}

// TestAdmissionBusyReply: with the session table full and queueing disabled,
// a new connection is answered with a clean Error frame carrying CodeBusy —
// the retryable overload signal — not a hang or a raw close.
func TestAdmissionBusyReply(t *testing.T) {
	spec := loopbackSpec()
	srv := startServer(t, Config{Spec: spec, Mode: pipeline.Simulated,
		MaxSessions: 1, AdmitQueue: -1})

	holder := holdSession(t, srv, "holder")
	defer holder.Close()

	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	WriteFrame(conn, EncodeHello(Hello{Version: ProtocolVersion, World: 1, Name: "turned-away"}))
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	payload, err := ReadFrame(conn, 0)
	if err != nil {
		t.Fatalf("busy reply: %v", err)
	}
	msg, err := DecodeMessage(payload)
	if err != nil {
		t.Fatal(err)
	}
	em, ok := msg.(ErrorMsg)
	if !ok {
		t.Fatalf("busy reply was %T, want ErrorMsg", msg)
	}
	if em.Code != CodeBusy {
		t.Fatalf("busy reply code %d, want CodeBusy", em.Code)
	}
	snap := srv.Snapshot(time.Now())
	if snap.BusyRejections != 1 {
		t.Fatalf("busy_rejections %d, want 1", snap.BusyRejections)
	}
}

// TestClientRetriesBusy: a busy rejection flows through the client's
// existing jittered-backoff retry loop — unlike a fatal ServerError — and
// the session succeeds once the slot frees up.
func TestClientRetriesBusy(t *testing.T) {
	spec := loopbackSpec()
	srv := startServer(t, Config{Spec: spec, Mode: pipeline.Simulated, Prefetch: 2,
		MaxSessions: 1, AdmitQueue: -1})

	holder := holdSession(t, srv, "holder")
	released := false
	var sleeps []time.Duration
	c := NewClient(ClientConfig{
		Addr: srv.Addr(), Name: "patient", Retries: 8,
		BackoffBase: 20 * time.Millisecond,
		Sleep: func(d time.Duration) {
			sleeps = append(sleeps, d)
			if !released {
				released = true
				holder.Close() // the slot frees while the client backs off
			}
			time.Sleep(d)
		},
	})
	defer c.Close()
	stats, err := c.Run(1, nil)
	if err != nil {
		t.Fatalf("run after busy: %v", err)
	}
	if stats.Retries < 1 || len(sleeps) < 1 {
		t.Fatalf("busy was not retried: retries=%d sleeps=%v", stats.Retries, sleeps)
	}
	if stats.Batches != 10 {
		t.Fatalf("got %d batches after retry, want 10", stats.Batches)
	}
}

// TestAdmissionQueueAdmits: a connection arriving while the table is full
// parks in the bounded admission queue and is admitted — not rejected — as
// soon as a slot frees within the wait budget.
func TestAdmissionQueueAdmits(t *testing.T) {
	spec := loopbackSpec()
	srv := startServer(t, Config{Spec: spec, Mode: pipeline.Simulated, Prefetch: 2,
		MaxSessions: 1, AdmitQueue: 4, AdmitWait: 30 * time.Second})

	holder := holdSession(t, srv, "holder")

	done := make(chan error, 1)
	go func() {
		c := NewClient(ClientConfig{Addr: srv.Addr(), Name: "queued", Retries: 0})
		defer c.Close()
		stats, err := c.Run(1, nil)
		if err == nil && stats.Retries != 0 {
			err = fmt.Errorf("queued client needed %d retries", stats.Retries)
		}
		done <- err
	}()

	// Wait until the connection is parked in the admission queue, then free
	// the slot.
	deadline := time.Now().Add(10 * time.Second)
	for srv.admitWaiters.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("second connection never queued")
		}
		time.Sleep(time.Millisecond)
	}
	holder.Close()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("queued client: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("queued client never completed")
	}
	if snap := srv.Snapshot(time.Now()); snap.AdmitQueued != 1 || snap.BusyRejections != 0 {
		t.Fatalf("admit_queued=%d busy=%d, want 1 queued and 0 rejected",
			snap.AdmitQueued, snap.BusyRejections)
	}
}

// TestTracePIDStrideValidation: the trace-pid stride New derives always
// clears the widest worker span a run can reach — the regression case for
// run pid windows aliasing each other (or crowding controlPID) once a
// pipeline uses more pids than the stride.
func TestTracePIDStrideValidation(t *testing.T) {
	spec := loopbackSpec()
	spec.NumWorkers = 500
	srv := New(Config{Spec: spec, Mode: pipeline.Simulated})
	if got, want := srv.pidStride, 502; got != want {
		t.Fatalf("stride %d, want %d (workers+2)", got, want)
	}
	// Unset workers fall back to the pipeline's automatic worker count.
	spec = loopbackSpec()
	spec.NumWorkers = 0
	srv = New(Config{Spec: spec, Mode: pipeline.Simulated})
	if got, want := srv.pidStride, pipeline.DefaultAutoWorkers+2; got != want {
		t.Fatalf("auto-worker stride %d, want %d", got, want)
	}
	// The autotuner's worker bound counts too: it can raise workers above
	// the spec mid-epoch.
	spec = loopbackSpec()
	spec.NumWorkers = 2
	srv = New(Config{Spec: spec, Mode: pipeline.Simulated, AutoTune: true})
	if srv.pidStride < 18 { // controller default MaxWorkers 16 + 2
		t.Fatalf("autotune stride %d, want >= 18", srv.pidStride)
	}
	srv = New(Config{Spec: spec, Mode: pipeline.Simulated, AutoTune: true,
		AutoTuneControl: control.Config{MaxWorkers: 40}})
	if got, want := srv.pidStride, 42; got != want {
		t.Fatalf("autotune stride %d with MaxWorkers 40, want %d", got, want)
	}
}

// TestTracePIDRangesDisjoint streams two concurrent sessions and asserts
// every pipeline trace pid stays inside its run's private window. New derives
// the stride from the widest worker span a run can reach — the spec's
// workers, or the autotuner's bound, which may grow a run mid-epoch — so
// offsets never spill into the next run's window, and no pipeline record
// lands on controlPID.
func TestTracePIDRangesDisjoint(t *testing.T) {
	for _, tc := range []struct {
		name       string
		autoTune   bool
		maxWorkers int // the worker bound the stride must clear
	}{
		{"spec-workers", false, 2},
		{"autotune", true, 16}, // control.Config's default MaxWorkers
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec := loopbackSpec() // 2 workers
			srv := startServer(t, Config{Spec: spec, Mode: pipeline.Simulated, Prefetch: 2,
				AutoTune: tc.autoTune})
			stride := srv.pidStride
			if stride < tc.maxWorkers+2 {
				t.Fatalf("derived stride %d, want >= %d (worker bound + 2)", stride, tc.maxWorkers+2)
			}

			var wg sync.WaitGroup
			for rank := 0; rank < 2; rank++ {
				wg.Add(1)
				go func(rank int) {
					defer wg.Done()
					c := NewClient(ClientConfig{Addr: srv.Addr(), Rank: rank, World: 2,
						Name: fmt.Sprintf("pid-%d", rank)})
					defer c.Close()
					if _, err := c.Run(1, nil); err != nil {
						t.Errorf("client %d: %v", rank, err)
					}
				}(rank)
			}
			wg.Wait()

			bases := map[int]bool{}
			for _, rec := range srv.ring.Snapshot() {
				if rec.PID == controlPID {
					if !strings.HasPrefix(rec.Op, "control:") {
						t.Fatalf("pipeline record landed on controlPID: %+v", rec)
					}
					continue
				}
				if rec.PID < pipeline.MainPID {
					continue
				}
				off := (rec.PID - pipeline.MainPID) % stride
				// Valid offsets: main (0) plus workers (1..maxWorkers).
				if off > tc.maxWorkers {
					t.Fatalf("pid %d offset %d spills past the %d-worker span — aliases the next run",
						rec.PID, off, tc.maxWorkers)
				}
				bases[(rec.PID-pipeline.MainPID)/stride] = true
			}
			if len(bases) != 2 {
				t.Fatalf("trace shows %d run pid windows, want 2 disjoint", len(bases))
			}
		})
	}
}

// TestGreedyTenantThrottled: a rate-limited tenant observes throttle time
// while an unlimited tenant on the same server does not, and both streams
// stay byte-perfect (the client checksum enforces it) — QoS is schedule,
// never content.
func TestGreedyTenantThrottled(t *testing.T) {
	spec := loopbackSpec()
	srv := startServer(t, Config{Spec: spec, Mode: pipeline.Simulated, Prefetch: 2,
		BatchCacheBytes: 64 << 20,
		Tenants: map[string]TenantLimit{
			// 20 batches/sec with a one-batch burst: a 5-batch cached shard
			// streams in well under 250ms, so debt — and therefore observed
			// throttle time — is guaranteed even on a slow, instrumented run.
			"greedy": {BatchesPerSec: 20, BurstBatches: 1},
		}})

	var wg sync.WaitGroup
	for i, tenant := range []string{"greedy", "polite"} {
		wg.Add(1)
		go func(rank int, tenant string) {
			defer wg.Done()
			c := NewClient(ClientConfig{Addr: srv.Addr(), Rank: rank, World: 2,
				Name: tenant + "-sess", Tenant: tenant})
			defer c.Close()
			if _, err := c.Run(2, nil); err != nil {
				t.Errorf("%s: %v", tenant, err)
			}
		}(i, tenant)
	}
	wg.Wait()

	snap := srv.Snapshot(time.Now())
	if len(snap.Tenants) != 2 {
		t.Fatalf("tenant rows %d, want 2: %+v", len(snap.Tenants), snap.Tenants)
	}
	greedy, polite := snap.Tenants[0], snap.Tenants[1]
	if greedy.Tenant != "greedy" || polite.Tenant != "polite" {
		t.Fatalf("tenant rows %+v", snap.Tenants)
	}
	if greedy.ThrottledMs <= 0 {
		t.Fatalf("rate-limited tenant shows no throttle time: %+v", greedy)
	}
	if polite.ThrottledMs != 0 {
		t.Fatalf("unlimited tenant was throttled: %+v", polite)
	}
	if greedy.Batches == 0 || polite.Batches == 0 {
		t.Fatalf("tenant accounting missing batches: %+v", snap.Tenants)
	}
}

// TestSoak256Sessions is the scale soak: 256 concurrent loopback sessions
// (64 QoS tenants, admission control armed well above the load) each stream
// their one-batch shard of a 256-batch epoch. Every frame must be
// byte-identical to a local ground-truth run, the shared epoch plan must
// have been built once — not 256+ times — and no goroutine may outlive the
// drain (the t.Cleanup leak check runs after the server closes).
func TestSoak256Sessions(t *testing.T) {
	t.Cleanup(testutil.CheckGoroutines(t))
	const world = 256
	spec := workloads.ICSpec(2560, 7)
	spec.BatchSize = 10 // 256 batches: one per rank
	spec.NumWorkers = 1
	srv := startServer(t, Config{Spec: spec, Mode: pipeline.Simulated, Prefetch: 2,
		BatchCacheBytes: 128 << 20, MaxSessions: 512, QoS: true})

	expected := localEpochFrames(t, spec, 0)

	type result struct {
		rank    int
		batches int
		err     error
	}
	var mu sync.Mutex
	var mismatches []string
	results := make(chan result, world)
	var wg sync.WaitGroup
	for rank := 0; rank < world; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			c := NewClient(ClientConfig{Addr: srv.Addr(), Rank: rank, World: world,
				Name:   fmt.Sprintf("soak-%d", rank),
				Tenant: fmt.Sprintf("team-%d", rank%64), Retries: 8})
			defer c.Close()
			stats, err := c.Run(1, func(b *Batch, payload []byte) {
				if !bytes.Equal(payload, expected[b.GlobalID]) {
					mu.Lock()
					mismatches = append(mismatches,
						fmt.Sprintf("rank %d batch %d differs from ground truth", rank, b.GlobalID))
					mu.Unlock()
				}
			})
			batches := 0
			if stats != nil {
				batches = stats.Batches
			}
			results <- result{rank, batches, err}
		}(rank)
	}
	wg.Wait()
	close(results)

	total := 0
	for r := range results {
		if r.err != nil {
			t.Fatalf("rank %d: %v", r.rank, r.err)
		}
		total += r.batches
	}
	if total != 256 {
		t.Fatalf("sessions streamed %d batches total, want 256", total)
	}
	if len(mismatches) > 0 {
		t.Fatalf("%d byte-identity violations, first: %s", len(mismatches), mismatches[0])
	}

	snap := srv.Snapshot(time.Now())
	if snap.BusyRejections != 0 {
		t.Fatalf("soak under the session cap saw %d busy rejections", snap.BusyRejections)
	}
	if snap.PlanBuilds != 1 {
		t.Fatalf("epoch plan built %d times across 256 sessions, want 1 shared build", snap.PlanBuilds)
	}
	if len(snap.Tenants) != 64 {
		t.Fatalf("tenant rows %d, want 64", len(snap.Tenants))
	}
	if errors.Is(srv.Close(), nil) {
		// Close before the leak check (cleanup order also closes; idempotent).
	}
}
