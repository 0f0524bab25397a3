package serve

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/fnv"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"lotus/internal/clock"
	"lotus/internal/control"
	"lotus/internal/core/trace"
	"lotus/internal/faultinject"
	"lotus/internal/native"
	"lotus/internal/pipeline"
	"lotus/internal/store"
	"lotus/internal/workloads"
)

// Config parameterizes a preprocessing server.
type Config struct {
	// Spec is the served pipeline (dataset, transforms, loader parameters).
	Spec workloads.Spec
	// Mode selects simulated (meta tensors, virtual-clock execution) or real
	// (actual pixels, wall-clock execution) preprocessing.
	Mode pipeline.Mode
	// EmulateTime, in Simulated mode, drives the pipeline with the wall
	// clock instead of the virtual one: the modeled preprocessing and
	// storage latencies pace the stream in real time while payloads stay
	// synthetic meta tensors. Load generation and cluster scaling
	// benchmarks use it to measure routing throughput without the pixel
	// work (and its single-machine CPU ceiling) of real mode.
	EmulateTime bool
	// Prefetch is the per-session server-side prefetch queue depth in
	// batches; the producer stalls once this many encoded batches are
	// waiting for the network, which is the service's backpressure bound
	// (default 4).
	Prefetch int
	// MaterializeDim caps synthesized image resolution in real mode.
	MaterializeDim int
	// MaxFrame bounds wire frames (default DefaultMaxFrame).
	MaxFrame int
	// RingSize is the live trace ring capacity in records (default 16384).
	RingSize int
	// HelloTimeout bounds how long a fresh connection may take to present a
	// valid Hello before the server gives up on it (default 10s).
	HelloTimeout time.Duration
	// BatchCacheBytes, when > 0, enables the server-wide materialized-batch
	// cache: each (epoch, global batch ID) frame is preprocessed and encoded
	// once, whatever the number of concurrent sessions, ShardReq routes, or
	// replication fetches asking for it, and the canonical bytes are served
	// to everyone out of an LRU cache bounded to this many payload bytes.
	// 0 disables the cache (every session runs its own pipeline, the
	// pre-cache behavior).
	BatchCacheBytes int64
	// DiskCacheDir, when non-empty, enables the persistent disk tier under
	// both memory caches: encoded batch frames and sample snapshots are
	// spilled to a content-addressed segment store in this directory and
	// consulted before recomputing, so restarts — and other jobs pointed at
	// the same directory with the same spec — warm-start instead of
	// re-paying the preprocessing bill. Keys embed the spec/prefix
	// fingerprints, so a reconfigured server can never alias stale bytes.
	// The batch tier engages only when BatchCacheBytes > 0 (it publishes
	// through the memory cache); the sample tier only when SampleCacheBytes
	// > 0.
	DiskCacheDir string
	// DiskCacheBytes is the disk tier's soft byte budget (segment-granular
	// LRU eviction); <= 0 means unlimited.
	DiskCacheBytes int64
	// DiskSegmentBytes overrides the store's segment roll size (tests).
	DiskSegmentBytes int64
	// SampleCacheBytes, when > 0, enables the server-wide split-point sample
	// cache: each sample's deterministic prefix (storage read + decode +
	// deterministic resize) is materialized once and shared across epochs,
	// sessions, and workers, so augmented specs whose random suffix defeats
	// the batch cache still skip the decode from epoch 2 on. 0 disables it.
	// The cache layers under the batch cache: a batch-cache hit never
	// consults it, and a batch-cache miss runs only the random suffix on
	// prefix hits.
	SampleCacheBytes int64
	// Faults, when non-nil, is the deterministic fault-injection layer: it is
	// threaded into every session's pipeline (read errors / stalls / panics)
	// and consulted per outgoing batch frame for wire faults (drop, truncate,
	// corrupt). Production servers leave it nil.
	Faults *faultinject.Injector
	// MaxSessions bounds concurrently admitted sessions (0 = unlimited).
	// Over-limit handshakes wait in a bounded admission queue for a slot and
	// are otherwise turned away with a retryable ErrServerBusy Error frame
	// (CodeBusy), so overload degrades to fast rejection plus client backoff
	// instead of unbounded goroutine and buffer growth.
	MaxSessions int
	// AdmitQueue is how many over-limit handshakes may wait for a session
	// slot (default 16; < 0 disables queueing, rejecting immediately).
	AdmitQueue int
	// AdmitWait bounds how long a queued handshake waits for a slot before
	// it is turned away busy (default 2s).
	AdmitWait time.Duration
	// Tenants maps tenant names (Hello.Tenant) to explicit QoS limits;
	// TenantDefault applies to tenants not listed (its zero value means
	// unlimited rate, weight 1). A non-empty Tenants map — or QoS — enables
	// the per-tenant scheduler.
	Tenants       map[string]TenantLimit
	TenantDefault TenantLimit
	// QoS force-enables per-tenant fair scheduling even with no explicit
	// limits configured: tenants then share the compute gate by
	// deficit-weighted round robin with equal weights, and the pacer bounds
	// each tenant's lead on the wire.
	QoS bool
	// QoSLeadBytes bounds how many weighted wire bytes any tenant may run
	// ahead of the slowest active tenant before its writes are paced — the
	// mechanism that keeps tenants fair when batches come from the cache,
	// since extra sessions cannot buy service past the lead bound. Default
	// 1 MiB; < 0 disables lead pacing.
	QoSLeadBytes int64
	// LogLinesPerSec rate-limits per-session log lines (handshake rejects,
	// epoch errors, session opens) so a 1000-session churn storm cannot
	// serialize every connection goroutine on the logger (default 50 lines/s
	// with a 2s burst; < 0 disables limiting). Suppressed lines are counted
	// on /metrics.
	LogLinesPerSec float64
	// Pprof registers net/http/pprof handlers on the HTTP sidecar under
	// /debug/pprof/, so goroutine and heap footprint at high session counts
	// is diagnosable in production.
	Pprof bool
	// AutoTune enables the closed-loop controller: at every completed epoch
	// the server observes its own T2 wait records, prefetch-queue fill, and
	// cache counters, and actuates the pipeline worker count (including live
	// resizes of epochs in flight), the prefetch factor, and the three cache
	// byte budgets. Decisions are keyed off the epochs-served counter, so a
	// sim-mode server tunes deterministically.
	AutoTune bool
	// AutoTuneLongWait classifies a main-process batch wait as a stall for
	// the controller's wait-fraction signal (default 500ms, the advisor's
	// threshold).
	AutoTuneLongWait time.Duration
	// AutoTuneControl overrides the controller's bounds and pacing (zero
	// values take control.Config defaults). Tests tighten the cooldowns.
	AutoTuneControl control.Config
	// ClusterInfo, when non-nil, is served as JSON on the sidecar's /cluster
	// endpoint — a func (not a value) so cluster membership state stays live.
	// It keeps internal/serve free of a cluster dependency: the cluster layer
	// sits above the server and injects its view here.
	ClusterInfo func() any
	// Logf receives server lifecycle logs (nil = silent).
	Logf func(format string, args ...any)
}

// Server is the long-running preprocessing service. One Server owns one
// workload spec; every client session shards the same epoch plans.
type Server struct {
	cfg        Config
	datasetLen int
	planLen    int

	ln      net.Listener
	httpLn  net.Listener
	httpSrv httpCloser

	metrics     *Metrics
	ring        *trace.Ring
	cache       *BatchCache // nil when Config.BatchCacheBytes == 0
	specFP      uint64
	sampleCache *pipeline.SampleCache // nil when Config.SampleCacheBytes == 0
	prefixFP    uint64
	disk        *store.Store // nil when Config.DiskCacheDir == ""
	tuner       *tuner       // nil when Config.AutoTune is false

	ctx      context.Context
	cancel   context.CancelFunc
	draining atomic.Bool

	// Admission control: admitSem holds one token per admitted session when
	// MaxSessions > 0; admitWaiters counts handshakes parked in the bounded
	// queue.
	admitSem     chan struct{}
	admitWaiters atomic.Int32

	qos   *qosState // nil when per-tenant QoS is disabled
	slog  *logLimiter
	plans planCache // shared epoch plans (spec-fingerprint identical by construction)

	// Every pipeline run gets a private trace-pid window: run number times
	// pidStride, which New derives from the widest worker span a run can
	// reach.
	pidStride int
	runSeq    atomic.Int64

	wg         sync.WaitGroup
	mu         sync.Mutex
	conns      map[net.Conn]struct{}
	sessionSeq int
}

// cacheWaitTimeout bounds how long a session blocks on another session's
// in-flight computation of a batch before it computes the batch itself, so
// no session's liveness depends on a stalled claim owner.
const cacheWaitTimeout = 30 * time.Second

// httpCloser is the slice of *http.Server the Server needs; an interface so
// server.go does not import net/http (observe.go does).
type httpCloser interface {
	Close() error
}

// New builds a Server. Call Start to begin listening.
func New(cfg Config) *Server {
	if cfg.Prefetch <= 0 {
		cfg.Prefetch = 4
	}
	if cfg.MaxFrame <= 0 {
		cfg.MaxFrame = DefaultMaxFrame
	}
	if cfg.RingSize <= 0 {
		cfg.RingSize = 16384
	}
	if cfg.HelloTimeout <= 0 {
		cfg.HelloTimeout = 10 * time.Second
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if cfg.AdmitQueue == 0 {
		cfg.AdmitQueue = 16
	}
	if cfg.AdmitWait <= 0 {
		cfg.AdmitWait = 2 * time.Second
	}
	if cfg.LogLinesPerSec == 0 {
		cfg.LogLinesPerSec = 50
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:        cfg,
		datasetLen: cfg.Spec.NumSamples,
		metrics:    NewMetrics(time.Now()),
		ring:       trace.NewRing(cfg.RingSize),
		ctx:        ctx,
		cancel:     cancel,
		conns:      make(map[net.Conn]struct{}),
	}
	s.ring.SetPerLogCost(cfg.Spec.PerLogCost)
	// A run's procs take pids MainPID..MainPID+workers, and the autotuner
	// may grow a streaming run up to its worker bound, so that bound plus
	// headroom spaces run windows apart in the shared ring.
	maxWorkers := cfg.Spec.NumWorkers
	if maxWorkers <= 0 {
		maxWorkers = pipeline.DefaultAutoWorkers
	}
	if cfg.AutoTune {
		tunerMax := cfg.AutoTuneControl.MaxWorkers
		if tunerMax <= 0 {
			tunerMax = 16 // control.Config's default bound
		}
		maxWorkers = max(maxWorkers, tunerMax)
	}
	s.pidStride = maxWorkers + 2
	s.planLen = len(pipeline.BuildBatchPlan(s.datasetLen, cfg.Spec.BatchSize,
		cfg.Spec.Shuffle, false, cfg.Spec.Seed))
	s.specFP = SpecFingerprint(cfg.Spec, cfg.Mode, cfg.MaterializeDim)
	if cfg.BatchCacheBytes > 0 {
		s.cache = NewBatchCache(cfg.BatchCacheBytes)
	}
	if cfg.SampleCacheBytes > 0 {
		if fp, ok := PrefixFingerprint(cfg.Spec, cfg.Mode, cfg.MaterializeDim); ok {
			// Blocking single-flight only when pipeline procs run on the wall
			// clock; pure-sim procs must never park on channels the virtual
			// clock cannot see, so they bypass in-flight entries instead.
			blocking := cfg.Mode == pipeline.RealData || cfg.EmulateTime
			s.sampleCache = pipeline.NewSampleCache(cfg.SampleCacheBytes, blocking)
			s.prefixFP = fp
		}
	}
	if cfg.AutoTune {
		s.tuner = newTuner(s, cfg.AutoTuneControl, cfg.AutoTuneLongWait)
	}
	if cfg.MaxSessions > 0 {
		s.admitSem = make(chan struct{}, cfg.MaxSessions)
	}
	if cfg.QoS || len(cfg.Tenants) > 0 {
		s.qos = newQoSState(cfg.Tenants, cfg.TenantDefault,
			max(4, 2*runtime.GOMAXPROCS(0)), cfg.QoSLeadBytes)
	}
	s.slog = newLogLimiter(cfg.LogLinesPerSec, cfg.Logf)
	return s
}

// slogf is the rate-limited log path for per-session lines; lifecycle lines
// (start, drain) keep the unthrottled cfg.Logf.
func (s *Server) slogf(format string, args ...any) { s.slog.Logf(format, args...) }

// logLimiter throttles high-cardinality log lines behind a token bucket so
// a session churn storm cannot serialize a thousand connection goroutines on
// the logger. Suppressed lines are counted, not silently lost.
type logLimiter struct {
	mu         sync.Mutex
	rate       float64 // lines per second; <= 0 means unlimited
	burst      float64
	tokens     float64
	last       time.Time
	logf       func(string, ...any)
	suppressed atomic.Int64
}

func newLogLimiter(rate float64, logf func(string, ...any)) *logLimiter {
	if rate < 0 {
		rate = 0 // unlimited
	}
	return &logLimiter{rate: rate, burst: 2 * rate, tokens: 2 * rate, last: time.Now(), logf: logf}
}

func (l *logLimiter) Logf(format string, args ...any) {
	if l.rate <= 0 {
		l.logf(format, args...)
		return
	}
	now := time.Now()
	l.mu.Lock()
	l.tokens += now.Sub(l.last).Seconds() * l.rate
	if l.tokens > l.burst {
		l.tokens = l.burst
	}
	l.last = now
	if l.tokens < 1 {
		l.mu.Unlock()
		l.suppressed.Add(1)
		return
	}
	l.tokens--
	l.mu.Unlock()
	l.logf(format, args...)
}

// planCache shares built epoch plans across every session of the server. The
// spec fingerprint is identical for all sessions by construction (one Server
// owns one spec), and BuildEpochPlan is deterministic, so a plan built once
// per epoch serves all O(1000) sessions — previously each session rebuilt
// the full O(dataset) plan on every epoch and shard request.
type planCache struct {
	mu     sync.Mutex
	epochs map[int][]PlanBatch
	order  []int // FIFO of cached epochs
	builds int64
	hits   int64
}

// planCacheEpochs bounds the retained plans; concurrent sessions cluster on
// a few adjacent epochs, so a small window gets all the reuse.
const planCacheEpochs = 4

// epochPlan returns the (shared, read-only) plan for one epoch.
func (s *Server) epochPlan(epoch int) []PlanBatch {
	pc := &s.plans
	pc.mu.Lock()
	if p, ok := pc.epochs[epoch]; ok {
		pc.hits++
		pc.mu.Unlock()
		return p
	}
	pc.mu.Unlock()
	spec := s.cfg.Spec
	plan := BuildEpochPlan(s.datasetLen, spec.BatchSize, spec.Shuffle, false, spec.Seed, epoch)
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if p, ok := pc.epochs[epoch]; ok { // raced another builder; identical plan
		pc.hits++
		return p
	}
	pc.builds++
	if pc.epochs == nil {
		pc.epochs = make(map[int][]PlanBatch)
	}
	pc.epochs[epoch] = plan
	pc.order = append(pc.order, epoch)
	if len(pc.order) > planCacheEpochs {
		delete(pc.epochs, pc.order[0])
		pc.order = pc.order[1:]
	}
	return plan
}

func (pc *planCache) stats() (builds, hits int64) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return pc.builds, pc.hits
}

// ErrServerBusy is the admission-control rejection: the server is at
// MaxSessions and the bounded queue is full (or timed out). It travels the
// wire as an Error frame with CodeBusy, which clients treat as transient and
// retry with their jittered backoff.
var ErrServerBusy = errors.New("server busy: session limit reached")

// admit reserves one session slot, waiting in the bounded admission queue
// when the server is full. The returned release function frees the slot.
func (s *Server) admit() (release func(), err error) {
	if s.admitSem == nil {
		return func() {}, nil
	}
	select {
	case s.admitSem <- struct{}{}:
		return s.releaseSlot, nil
	default:
	}
	if n := s.admitWaiters.Add(1); int(n) > s.cfg.AdmitQueue {
		s.admitWaiters.Add(-1)
		s.metrics.AddBusy()
		return nil, ErrServerBusy
	}
	defer s.admitWaiters.Add(-1)
	s.metrics.AddAdmitQueued()
	t := time.NewTimer(s.cfg.AdmitWait)
	defer t.Stop()
	select {
	case s.admitSem <- struct{}{}:
		return s.releaseSlot, nil
	case <-t.C:
		s.metrics.AddBusy()
		return nil, ErrServerBusy
	case <-s.ctx.Done():
		return nil, ErrServerBusy
	}
}

func (s *Server) releaseSlot() { <-s.admitSem }

// CacheStats reports the materialized-batch cache counters; ok is false when
// the cache is disabled.
func (s *Server) CacheStats() (BatchCacheStats, bool) {
	if s.cache == nil {
		return BatchCacheStats{}, false
	}
	return s.cache.Stats(), true
}

// SampleCacheStats reports the split-point sample cache counters; ok is
// false when the cache is disabled (or the spec has no deterministic
// prefix).
func (s *Server) SampleCacheStats() (pipeline.SampleCacheStats, bool) {
	if s.sampleCache == nil {
		return pipeline.SampleCacheStats{}, false
	}
	return s.sampleCache.Stats(), true
}

// Start listens on addr for the wire protocol and, when httpAddr is
// non-empty, on httpAddr for the observability sidecar. It returns once both
// listeners are live.
func (s *Server) Start(addr, httpAddr string) error {
	if s.cfg.DiskCacheDir != "" {
		st, err := store.Open(s.cfg.DiskCacheDir, store.Options{
			Budget:       s.cfg.DiskCacheBytes,
			SegmentBytes: s.cfg.DiskSegmentBytes,
			Faults:       s.cfg.Faults,
			Logf:         s.cfg.Logf,
		})
		if err != nil {
			return fmt.Errorf("serve: disk cache: %w", err)
		}
		s.disk = st
		if s.cache != nil {
			s.cache.SetSpill(s.spillBatchFrame)
		}
		if s.sampleCache != nil {
			s.sampleCache.SetDisk(st)
		}
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		if s.disk != nil {
			s.disk.Close()
			s.disk = nil
		}
		return fmt.Errorf("serve: listen %s: %w", addr, err)
	}
	s.ln = ln
	if httpAddr != "" {
		if err := s.startHTTP(httpAddr); err != nil {
			ln.Close()
			if s.disk != nil {
				s.disk.Close()
				s.disk = nil
			}
			return err
		}
	}
	s.wg.Add(1)
	go s.acceptLoop()
	s.cfg.Logf("lotus-serve: serving %s (%d samples, batch %d, %d workers, mode %s) on %s",
		s.cfg.Spec.Kind, s.datasetLen, s.cfg.Spec.BatchSize, s.cfg.Spec.NumWorkers,
		s.modeName(), ln.Addr())
	return nil
}

func (s *Server) modeName() string {
	if s.cfg.Mode == pipeline.RealData {
		return "real"
	}
	if s.cfg.EmulateTime {
		return "emulate"
	}
	return "sim"
}

// Addr reports the wire listener address (valid after Start).
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// HTTPAddr reports the observability listener address ("" if disabled).
func (s *Server) HTTPAddr() string {
	if s.httpLn == nil {
		return ""
	}
	return s.httpLn.Addr().String()
}

// Ring exposes the live trace ring (for in-process observability and tests).
func (s *Server) Ring() *trace.Ring { return s.ring }

// Metrics exposes the live counters.
func (s *Server) Metrics() *Metrics { return s.metrics }

// Shutdown drains the server: new sessions and new epoch requests are
// refused immediately, epochs already streaming run to completion until ctx
// expires, at which point in-flight epochs are aborted and connections
// closed. It returns ctx.Err() if the deadline forced the teardown.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	if s.ln != nil {
		s.ln.Close()
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
		s.cancel()
		s.closeConns()
		<-done
	}
	s.cancel()
	if s.httpSrv != nil {
		s.httpSrv.Close()
	}
	if s.disk != nil {
		// Sessions are gone; drain queued spills and land the manifest so
		// the next open warm-starts without a rebuild. (Store.Close is
		// idempotent, so a second Shutdown is harmless.)
		if derr := s.disk.Close(); derr != nil {
			s.cfg.Logf("lotus-serve: disk cache close: %v", derr)
		}
	}
	s.cfg.Logf("lotus-serve: drained")
	return err
}

// Close tears the server down immediately (Shutdown with an expired
// deadline).
func (s *Server) Close() error {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := s.Shutdown(ctx)
	if errors.Is(err, context.Canceled) {
		err = nil
	}
	return err
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed (drain or Close)
		}
		if s.draining.Load() {
			s.sendError(conn, "server draining")
			conn.Close()
			continue
		}
		s.track(conn)
		s.wg.Add(1)
		go s.handleConn(conn)
	}
}

func (s *Server) track(conn net.Conn) {
	s.mu.Lock()
	s.conns[conn] = struct{}{}
	s.mu.Unlock()
}

func (s *Server) untrack(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
}

func (s *Server) closeConns() {
	s.mu.Lock()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
}

// sendError writes a best-effort fatal Error frame before the caller closes
// the connection.
func (s *Server) sendError(conn net.Conn, msg string) {
	s.sendErrorCode(conn, msg, CodeFatal)
}

// sendErrorCode is sendError with an explicit error code (CodeBusy for
// retryable admission rejections).
func (s *Server) sendErrorCode(conn net.Conn, msg string, code byte) {
	conn.SetWriteDeadline(time.Now().Add(2 * time.Second))
	WriteFrame(conn, EncodeError(ErrorMsg{Message: msg, Code: code}))
	conn.SetWriteDeadline(time.Time{})
}

// handleConn owns one client session: handshake, then a request loop until
// the client says Bye, disconnects, or violates the protocol. Every failure
// path answers with an Error frame and closes — malformed remote input must
// never panic the server.
func (s *Server) handleConn(conn net.Conn) {
	defer s.wg.Done()
	defer s.untrack(conn)
	defer conn.Close()

	hello, err := s.readHello(conn)
	if err != nil {
		s.slogf("lotus-serve: %s: rejected: %v", conn.RemoteAddr(), err)
		s.sendError(conn, err.Error())
		return
	}
	release, err := s.admit()
	if err != nil {
		s.slogf("lotus-serve: %s: turned away: %v", conn.RemoteAddr(), err)
		s.sendErrorCode(conn, err.Error(), CodeBusy)
		return
	}
	defer release()
	sess := s.newSession(conn, hello)
	defer sess.close()
	s.slogf("lotus-serve: session %d: %s rank %d/%d (%q tenant %q)",
		sess.id, conn.RemoteAddr(), hello.Rank, hello.World, hello.Name, hello.Tenant)

	ack := HelloAck{
		Version:      ProtocolVersion,
		DatasetLen:   s.datasetLen,
		BatchSize:    s.cfg.Spec.BatchSize,
		PlanBatches:  s.planLen,
		ShardBatches: ShardSize(s.planLen, hello.Rank, hello.World),
		Workload:     string(s.cfg.Spec.Kind),
	}
	if s.cfg.Mode == pipeline.RealData {
		ack.Mode = 1
	}
	if err := WriteFrame(conn, EncodeHelloAck(ack)); err != nil {
		return
	}

	for {
		payload, err := ReadFrame(conn, s.cfg.MaxFrame)
		if err != nil {
			if err == io.EOF {
				return // client hung up cleanly between requests
			}
			if errors.Is(err, ErrMalformed) {
				s.sendError(conn, err.Error())
			}
			return
		}
		msg, err := DecodeMessage(payload)
		if err != nil {
			s.sendError(conn, err.Error())
			return
		}
		switch m := msg.(type) {
		case EpochReq:
			if m.Epoch < 0 || m.Epoch > 1<<30 {
				s.sendError(conn, fmt.Sprintf("invalid epoch %d", m.Epoch))
				return
			}
			if s.draining.Load() {
				s.sendError(conn, "server draining")
				return
			}
			if err := sess.streamEpoch(m.Epoch); err != nil {
				sess.sm.AddEpochAbort()
				s.metrics.AddEpochAbort()
				s.slogf("lotus-serve: session %d: epoch %d: %v", sess.id, m.Epoch, err)
				return
			}
		case ShardReq:
			if m.Epoch < 0 || m.Epoch > 1<<30 {
				s.sendError(conn, fmt.Sprintf("invalid epoch %d", m.Epoch))
				return
			}
			if s.draining.Load() {
				s.sendError(conn, "server draining")
				return
			}
			if m.Hedge {
				s.metrics.AddHedge(len(m.IDs))
			}
			if err := sess.streamShardReq(m); err != nil {
				sess.sm.AddEpochAbort()
				s.metrics.AddEpochAbort()
				s.slogf("lotus-serve: session %d: epoch %d shard: %v", sess.id, m.Epoch, err)
				return
			}
		case Bye:
			return
		default:
			s.sendError(conn, fmt.Sprintf("unexpected %T mid-session", msg))
			return
		}
	}
}

func (s *Server) readHello(conn net.Conn) (Hello, error) {
	conn.SetReadDeadline(time.Now().Add(s.cfg.HelloTimeout))
	defer conn.SetReadDeadline(time.Time{})
	payload, err := ReadFrame(conn, s.cfg.MaxFrame)
	if err != nil {
		return Hello{}, fmt.Errorf("handshake: %w", err)
	}
	msg, err := DecodeMessage(payload)
	if err != nil {
		return Hello{}, fmt.Errorf("handshake: %w", err)
	}
	hello, ok := msg.(Hello)
	if !ok {
		return Hello{}, fmt.Errorf("handshake: expected Hello, got %T", msg)
	}
	if hello.Version != ProtocolVersion {
		return Hello{}, fmt.Errorf("handshake: protocol version %d, server speaks %d",
			hello.Version, ProtocolVersion)
	}
	return hello, nil
}

// session is one connected client's server-side state: its connection,
// identity, tenant and metrics row. It holds no pipeline state — every batch
// it computes comes from a run (runPlan) — so an idle session costs only
// this struct, its connection goroutine, and a metrics row, which is what
// keeps O(1000) mostly-idle sessions cheap.
type session struct {
	srv         *Server
	id          int
	conn        net.Conn
	rank, world int
	tenant      *tenantState // nil when QoS is disabled
	sm          *SessionMetrics
}

func (s *Server) newSession(conn net.Conn, hello Hello) *session {
	s.mu.Lock()
	s.sessionSeq++
	id := s.sessionSeq
	s.mu.Unlock()
	ss := &session{
		srv:   s,
		id:    id,
		conn:  conn,
		rank:  hello.Rank,
		world: hello.World,
		sm:    s.metrics.OpenSession(id, hello.Name, hello.Tenant, hello.Rank, hello.World, time.Now()),
	}
	if s.qos != nil {
		ss.tenant = s.qos.tenant(hello.Tenant)
		ss.tenant.mu.Lock()
		ss.tenant.sessions++
		ss.tenant.mu.Unlock()
	}
	return ss
}

// close releases the session's registry state (metrics row, tenant count).
func (ss *session) close() {
	ss.srv.metrics.CloseSession(ss.id)
	if ss.tenant != nil {
		ss.tenant.mu.Lock()
		ss.tenant.sessions--
		ss.tenant.mu.Unlock()
	}
}

// streamEpoch runs the session's rank/world shard of one epoch through a
// DataLoader and streams the batches.
func (ss *session) streamEpoch(epoch int) error {
	plan := ss.srv.epochPlan(epoch)
	return ss.streamShard(epoch, Shard(plan, ss.rank, ss.world))
}

// streamShardReq validates an explicit batch-ID request against the epoch
// plan and streams exactly those batches, in request order. The plan — not
// the session — defines the work, so a cluster router can hand any subset to
// any node and still get frames byte-identical to a rank/world session's.
func (ss *session) streamShardReq(req ShardReq) error {
	plan := ss.srv.epochPlan(req.Epoch)
	shard := make([]PlanBatch, len(req.IDs))
	seen := make(map[int]bool, len(req.IDs))
	for i, id := range req.IDs {
		if id < 0 || id >= len(plan) {
			msg := fmt.Sprintf("shard request: batch id %d out of plan [0,%d)", id, len(plan))
			ss.srv.sendError(ss.conn, msg)
			return errors.New(msg)
		}
		if seen[id] {
			msg := fmt.Sprintf("shard request: duplicate batch id %d", id)
			ss.srv.sendError(ss.conn, msg)
			return errors.New(msg)
		}
		seen[id] = true
		shard[i] = plan[id]
	}
	return ss.streamShard(req.Epoch, shard)
}

// cacheKey builds this server's cache key for one batch of one epoch.
func (ss *session) cacheKey(epoch, globalID int) BatchKey {
	return BatchKey{Fingerprint: ss.srv.specFP, Epoch: epoch, GlobalID: globalID}
}

// streamShard streams one shard of one epoch. The producer (pipeline) and
// the writer (network) are decoupled by a bounded channel of encoded frames:
// when the client or the network is slow, the channel fills and the pipeline
// stalls — bounded backpressure instead of unbounded buffering.
//
// With the batch cache enabled the session first claims, for its entire
// shard, every batch no other session is already producing; one run then
// covers exactly the claimed subset, and every other slot is
// acquired from the cache at write time (hit, or a single-flight wait on the
// producing session). The deterministic plan makes the claimed-subset
// pipeline byte-identical to a full-shard one — batch bytes depend only on
// the epoch seed and the plan's indices, not on which session or worker
// produced them — so N concurrent ranks cost one preprocessing pass, not N.
func (ss *session) streamShard(epoch int, shard []PlanBatch) error {
	cache := ss.srv.cache

	sum := fnv.New64a()
	if len(shard) == 0 {
		return WriteFrame(ss.conn, EncodeEpochEnd(EpochEnd{Epoch: epoch, Checksum: sum.Sum64()}))
	}

	mine := make([]bool, len(shard))
	var claimed []PlanBatch
	if cache == nil {
		claimed = shard
		for i := range mine {
			mine[i] = true
		}
	} else {
		for i, pb := range shard {
			key := ss.cacheKey(epoch, pb.GlobalID)
			if !cache.Claim(key, ss.id) {
				continue
			}
			// Won the claim: consult the persistent tier before paying for
			// the pipeline. A disk hit publishes straight into the memory
			// cache (waking any cross-session waiters) and the write loop
			// picks it up as an ordinary cache hit below.
			if f := ss.srv.diskLoadBatch(key); f != nil {
				cache.Fulfill(key, f)
				f.Release()
				continue
			}
			mine[i] = true
			claimed = append(claimed, pb)
		}
	}
	ctx, cancelEpoch := context.WithCancel(ss.srv.ctx)
	defer cancelEpoch()
	unwatch := ss.watchConn(cancelEpoch)
	defer unwatch()
	frames := make(chan *Frame, ss.srv.cfg.Prefetch)
	ss.sm.SetQueueGauge(func() int { return len(frames) })
	defer ss.sm.SetQueueGauge(nil)
	fw := ss.newFrameWriter()
	defer fw.close()

	prodErr := make(chan error, 1)
	go ss.produceClaimed(ctx, epoch, claimed, frames, prodErr)

	// The write loop coalesces only frames that are already available: before
	// any wait that could block — the producer's channel empty, or a foreign
	// slot not ready in the cache — pending frames are flushed, so batching
	// trades syscalls, never adds first-frame latency.
	var werr error
	sent := 0
	for i := 0; i < len(shard) && werr == nil; i++ {
		var f *Frame
		if mine[i] {
			var ok bool
			select {
			case f, ok = <-frames:
			default:
				if werr = fw.flush(); werr != nil {
					cancelEpoch()
					break
				}
				f, ok = <-frames
			}
			if !ok {
				break // producer ended early; prodErr explains why
			}
		} else {
			pb := shard[i]
			key := ss.cacheKey(epoch, pb.GlobalID)
			if f = cache.TryGet(key); f == nil {
				if werr = fw.flush(); werr != nil {
					cancelEpoch()
					break
				}
				var err error
				f, err = cache.Acquire(key, ss.id, ctx.Done(), cacheWaitTimeout,
					func() (*Frame, error) { return ss.computeBatch(ctx, epoch, pb) })
				if err != nil {
					werr = fmt.Errorf("batch %d: %w", pb.GlobalID, err)
					cancelEpoch()
					break
				}
			}
		}
		if werr = ss.writeBatchFrame(fw, f, sum, ctx.Done()); werr == nil {
			sent++
		} else {
			cancelEpoch()
		}
		f.Release()
	}
	if werr == nil {
		if werr = fw.flush(); werr != nil {
			cancelEpoch()
		}
	}
	// Whatever ended the loop, release everything the producer still emits so
	// it never blocks forever, then collect its verdict.
	for f := range frames {
		f.Release()
	}
	perr := <-prodErr
	if werr != nil {
		return fmt.Errorf("write: %w", werr)
	}
	if perr != nil {
		if errors.Is(perr, context.Canceled) {
			perr = errors.New("server draining")
		}
		ss.srv.sendError(ss.conn, fmt.Sprintf("epoch %d: %v", epoch, perr))
		return fmt.Errorf("epoch %d: %w", epoch, perr)
	}
	ss.sm.AddEpoch()
	ss.srv.metrics.AddEpoch()
	if t := ss.srv.tuner; t != nil {
		t.observe()
	}
	// The watcher must be off the socket before EpochEnd goes out: once the
	// client sees it, the very next bytes on this connection are its next
	// request, and those belong to the session loop's reader.
	unwatch()
	return WriteFrame(ss.conn, EncodeEpochEnd(EpochEnd{Epoch: epoch, Batches: sent, Checksum: sum.Sum64()}))
}

// watchConn watches the session's socket for death while a stream is in
// flight. The protocol is strictly half-duplex — the client sends nothing
// between its request and the EpochEnd reply — so any read activity
// mid-stream means the peer hung up, was severed (a hedged straggler kicked
// by the cluster client), or broke protocol; all of those cancel the epoch
// so the pipeline aborts instead of computing — or sleeping out an injected
// stall — for a socket nobody is reading. Without it, a dead connection is
// only discovered at the next write, which can be arbitrarily far away when
// the producer is stuck behind a degraded worker.
//
// The returned stop function is idempotent; it forces the watcher off the
// socket via a read deadline and must be called before the connection is
// next used for a request/response exchange.
func (ss *session) watchConn(cancel context.CancelFunc) (stop func()) {
	done := make(chan struct{})
	var stopping atomic.Bool
	go func() {
		defer close(done)
		var buf [1]byte
		_, err := ss.conn.Read(buf[:])
		if ne, ok := err.(net.Error); ok && ne.Timeout() && stopping.Load() {
			return // kicked off the socket by stop(), stream still healthy
		}
		cancel()
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			stopping.Store(true)
			ss.conn.SetReadDeadline(time.Now())
			<-done
			ss.conn.SetReadDeadline(time.Time{})
		})
	}
}

// produceClaimed runs the batches the session claimed, publishing each frame
// to the cache first (so cross-session waiters are served at compute speed)
// and then to the bounded frames channel (so the session's own socket still
// backpressures the pipeline). On any exit — completion, failure, panic,
// abort — unfulfilled claims are abandoned so waiters elsewhere wake up and
// recompute instead of hanging.
func (ss *session) produceClaimed(ctx context.Context, epoch int, claimed []PlanBatch,
	frames chan<- *Frame, prodErr chan<- error) {
	cache := ss.srv.cache
	fulfilled := 0
	var perr error
	defer func() {
		if cache != nil {
			for _, pb := range claimed[fulfilled:] {
				cache.Abandon(ss.cacheKey(epoch, pb.GlobalID))
			}
		}
		prodErr <- perr
		close(frames)
	}()
	if len(claimed) == 0 {
		return // fully cached shard: nothing to produce
	}

	// QoS compute gate: each producer run holds one compute slot, charged
	// the number of claimed batches against the tenant's deficit, so a
	// tenant fanning out many sessions cannot monopolize the pipeline
	// dispatch tier. Scheduling only — once granted, the run produces its
	// exact claimed set, so bytes are untouched.
	if q := ss.srv.qos; q != nil && ss.tenant != nil {
		if err := q.compute.acquire(ss.tenant.name, ss.tenant.weight(),
			int64(len(claimed)), ctx.Done()); err != nil {
			perr = err
			return // defer abandons every claim
		}
		defer q.compute.release()
	}

	workers, _ := ss.srv.pipelineKnobs()
	perr = ss.srv.runPlan(ctx, epoch, claimed, workers, ss.sm, func(i int, f *Frame) bool {
		if cache != nil {
			cache.Fulfill(ss.cacheKey(epoch, claimed[i].GlobalID), f)
			fulfilled = i + 1
		}
		select {
		case frames <- f:
			return true
		case <-ctx.Done():
			// Client gone or server draining. The frame stays valid in
			// the cache (if fulfilled); only this session's reference
			// drops.
			f.Release()
			return false
		}
	})
}

// computeBatch materializes one batch outside the session's streaming
// producer: the fallback when a cache claim was abandoned by a failing owner,
// evicted before this session reached it, or held past cacheWaitTimeout.
// Batch bytes depend only on the epoch seed and the batch's indices, never on
// which run or worker produced them, so a one-batch, one-worker run yields
// the frame the original owner would have cached — and, being a run, it is
// traced like any other.
func (ss *session) computeBatch(ctx context.Context, epoch int, pb PlanBatch) (*Frame, error) {
	var f *Frame
	err := ss.srv.runPlan(ctx, epoch, []PlanBatch{pb}, 1, ss.sm, func(_ int, bf *Frame) bool {
		f = bf
		return true
	})
	if err == nil && f == nil {
		err = fmt.Errorf("serve: fallback run produced no batch %d", pb.GlobalID)
	}
	if err != nil && f != nil {
		f.Release()
		f = nil
	}
	return f, err
}

// pipelineKnobs returns the worker count and prefetch factor a starting run
// uses: the autotuner's current targets, or the spec's.
func (s *Server) pipelineKnobs() (workers, prefetch int) {
	if s.tuner != nil {
		return s.tuner.pipelineKnobs()
	}
	return s.cfg.Spec.NumWorkers, s.cfg.Spec.Prefetch
}

// run is one DataLoader execution over an explicit plan of one epoch: a
// session's claimed batches, or the single batch a cache fallback
// recomputes. Runs, not sessions, own pipeline state. Each has its own hooked
// dataset view, engine (sim mode), private trace-pid window, and the
// paper's LotusTrace batch mapping — positional batch id to
// epoch*planLen+GlobalID — so every batch the server computes reaches the
// ring under its (epoch, globalID) and one pid per DataLoader process.
type run struct {
	srv     *Server
	epoch   int
	plan    []PlanBatch
	pidBase int
	sm      *SessionMetrics // receives the run's wait and delay metrics

	mu     sync.Mutex // real-mode workers fire hooks concurrently
	preEnd map[int]time.Time
}

// runPlan executes plan — batches of one epoch — on a fresh DataLoader with
// the given worker count, handing each encoded frame to emit in plan order.
// emit returns false only once ctx is done; the run then aborts and returns
// ctx's error. This is the one place the server builds a pipeline.Config,
// picks its clock, creates the engine and the hooked dataset view, and
// registers a loader with the autotuner.
func (s *Server) runPlan(ctx context.Context, epoch int, plan []PlanBatch, workers int,
	sm *SessionMetrics, emit func(i int, f *Frame) bool) (err error) {
	r := &run{srv: s, epoch: epoch, plan: plan, sm: sm,
		pidBase: int(s.runSeq.Add(1)) * s.pidStride, preEnd: make(map[int]time.Time)}
	spec := s.cfg.Spec
	batchPlan := make([][]int, len(plan))
	for i, pb := range plan {
		batchPlan[i] = pb.Indices
	}
	_, prefetch := s.pipelineKnobs()
	hks := r.hooks()
	cfg := pipeline.Config{
		BatchSize:      spec.BatchSize,
		NumWorkers:     workers,
		PrefetchFactor: prefetch,
		PinMemory:      spec.PinMemory,
		Seed:           spec.Seed,
		Epoch:          epoch,
		BatchPlan:      batchPlan,
		Hooks:          hks,
		Mode:           s.cfg.Mode,
		WorkScale:      spec.WorkScale,
		MaterializeDim: s.cfg.MaterializeDim,
		Dispatch:       spec.Dispatch,
		Faults:         s.cfg.Faults,
		SampleCache:    s.sampleCache,
		PrefixFP:       s.prefixFP,
	}
	if s.cfg.Mode != pipeline.RealData {
		cfg.Engine = native.NewEngine(spec.Arch, native.DefaultCPU())
	}
	var clk clock.Clock = clock.NewSim()
	if s.cfg.Mode == pipeline.RealData || s.cfg.EmulateTime {
		clk = clock.NewReal()
	}
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("serve: pipeline run panicked: %v", p)
		}
	}()
	clk.Run("serve-run", func(p clock.Proc) {
		// The run's dataset view carries its hooks through the Compose
		// chain; the synthetic records are deterministic, so every view
		// sees identical data, and a shared PageCache (if the spec sets
		// one) still deduplicates I/O across runs.
		dl := pipeline.NewDataLoader(clk, spec.Dataset(hks), cfg)
		// A worker-count action taken while this run streams resizes the
		// loader through the registry; the loader applies it at its next
		// dispatch point.
		if t := s.tuner; t != nil {
			t.register(dl)
			defer t.unregister(dl)
		}
		// emit's abort check only runs between batches, but a worker can be
		// mid-way through a long injected stall when ctx is cancelled — and
		// the main proc is then blocked in it.Next waiting on that very
		// worker. Bridge the cancellation to the loader's stall interrupt
		// from a plain goroutine so the sleeping worker wakes, its result
		// lands, and the abort path gets to run.
		watchDone := make(chan struct{})
		defer close(watchDone)
		go func() {
			select {
			case <-ctx.Done():
				dl.InterruptStalls()
			case <-watchDone:
			}
		}()
		it := dl.Start(p)
		// Whatever ends the run — completion, failure, or abort — consume
		// every in-flight worker result so no batch is left uncredited on
		// the data queue and the clock winds down clean.
		defer it.Drain(p)
		for i := 0; ; i++ {
			b, ok := it.Next(p)
			if !ok {
				err = it.Err()
				return
			}
			if !emit(i, encodeBatchFrame(batchToWire(epoch, plan[i].GlobalID, b))) {
				// Close the index queues so the workers finish what was
				// dispatched and exit.
				it.Abort()
				err = ctx.Err()
				return
			}
		}
	})
	return err
}

// traceBatchID maps a DataLoader positional batch id to its globally unique
// trace id: epoch * planLen + the batch's epoch-global plan position.
func (r *run) traceBatchID(pos int) int {
	if pos < 0 || pos >= len(r.plan) {
		return pos
	}
	return r.epoch*r.srv.planLen + r.plan[pos].GlobalID
}

// hooks adapts the pipeline instrumentation into the server's ring and
// metrics: pids move into the run's private window and batch ids become
// trace ids, wait records feed the wait metric, and preprocess/consume pairs
// feed the delay metric — the same wait/delay decomposition the paper's
// analysis uses.
func (r *run) hooks() *pipeline.Hooks {
	ring := r.srv.ring
	return &pipeline.Hooks{
		OnOp: func(pid, batchID, sampleIndex int, op string, start time.Time, dur time.Duration) {
			ring.Add(trace.Record{Kind: trace.KindOp, PID: pid + r.pidBase,
				BatchID: r.traceBatchID(batchID), SampleIndex: sampleIndex,
				Op: op, Start: start, Dur: dur})
		},
		OnBatchPreprocessed: func(pid, batchID int, start time.Time, dur time.Duration) {
			gid := r.traceBatchID(batchID)
			ring.Add(trace.Record{Kind: trace.KindBatchPreprocessed, PID: pid + r.pidBase,
				BatchID: gid, SampleIndex: -1, Start: start, Dur: dur})
			r.mu.Lock()
			r.preEnd[gid] = start.Add(dur)
			r.mu.Unlock()
		},
		OnBatchWait: func(pid, batchID int, start time.Time, dur time.Duration) {
			ring.Add(trace.Record{Kind: trace.KindBatchWait, PID: pid + r.pidBase,
				BatchID: r.traceBatchID(batchID), SampleIndex: -1, Start: start, Dur: dur})
			r.sm.AddWait(dur)
		},
		OnBatchConsumed: func(pid, batchID int, start time.Time, dur time.Duration) {
			gid := r.traceBatchID(batchID)
			ring.Add(trace.Record{Kind: trace.KindBatchConsumed, PID: pid + r.pidBase,
				BatchID: gid, SampleIndex: -1, Start: start, Dur: dur})
			r.mu.Lock()
			end, ok := r.preEnd[gid]
			delete(r.preEnd, gid)
			r.mu.Unlock()
			if ok {
				r.sm.AddDelay(start.Sub(end))
			}
		},
		// Served runs charge the same modeled per-record cost a streamed
		// Tracer run would — the Ring/Tracer overhead parity satellite.
		PerLogCost: r.srv.cfg.Spec.PerLogCost,
	}
}

// newFrameWriter builds the session's pooled write coalescer, wired to the
// coalescing metrics. An active fault injector forces immediate mode so the
// wire-fault seams keep their one-write-per-frame semantics.
func (ss *session) newFrameWriter() *frameWriter {
	maxFrames := coalesceFrames
	if ss.srv.cfg.Faults != nil {
		maxFrames = 1
	}
	fw := newFrameWriter(ss.conn, maxFrames)
	m := ss.srv.metrics
	fw.onFlush = func(frames int) { m.AddWritev(frames) }
	return fw
}

// writeBatchFrame pushes one encoded batch frame through the tenant rate
// limiter and pacer, the wire-fault seam, and the coalescing writer, folding the
// stream checksum and crediting metrics. The checksum always folds the CLEAN
// payload — wire faults model the network mangling bytes after the server
// produced them correctly — and the corrupt fault copies the payload before
// flipping a bit, so a cached frame other sessions are concurrently
// streaming is never damaged: faults land per-connection, not in shared
// cache bytes. QoS is schedule only: throttling and pacing delay the write,
// but bytes and per-session order are untouched.
func (ss *session) writeBatchFrame(fw *frameWriter, f *Frame, sum hash.Hash64, cancel <-chan struct{}) error {
	payload := f.Bytes()
	wireBytes := len(payload) + 4
	if q := ss.srv.qos; q != nil {
		if err := q.throttle(ss.tenant, wireBytes, cancel); err != nil {
			return err
		}
		if err := q.pace(ss.tenant, wireBytes, cancel); err != nil {
			return err
		}
	}
	switch ss.srv.cfg.Faults.NextWireAction() {
	case faultinject.WireDrop:
		ss.conn.Close()
		return errors.New("faultinject: connection dropped before frame")
	case faultinject.WireTruncate:
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
		ss.conn.Write(hdr[:])
		ss.conn.Write(payload[:len(payload)/2])
		ss.conn.Close()
		return errors.New("faultinject: frame truncated mid-payload")
	case faultinject.WireCorrupt:
		corrupted := append([]byte(nil), payload...)
		corrupted[len(corrupted)/2] ^= 0xa5
		if err := WriteFrame(ss.conn, corrupted); err != nil {
			return err
		}
	default:
		if err := fw.add(f); err != nil {
			return err
		}
	}
	sum.Write(payload)
	ss.sm.AddBatch(wireBytes)
	ss.srv.metrics.AddBatch(wireBytes)
	if ss.tenant != nil {
		ss.tenant.addBatch(wireBytes)
	}
	return nil
}

// batchToWire converts a pipeline batch to its wire form.
func batchToWire(epoch, globalID int, b *pipeline.Batch) *Batch {
	wb := &Batch{
		Epoch:    epoch,
		GlobalID: globalID,
		Indices:  b.Indices,
		Labels:   b.Labels,
	}
	if b.Data != nil {
		wb.Dtype = b.Data.Dtype
		wb.Shape = b.Data.Shape
		wb.U8 = b.Data.U8
		wb.F32 = b.Data.F32
	}
	return wb
}
