package serve

import "lotus/internal/flight"

// BatchCache is the server-wide materialized-batch cache: canonical encoded
// Batch frames keyed by (spec fingerprint, epoch, global batch ID), held in
// the shared single-flight tier (flight.Cache) in blocking mode. Because
// the epoch plan is deterministic and the encoding canonical, every session
// that needs a given key needs the *same bytes*, so the first requester
// computes the frame once and everyone else hits the ready entry or waits on
// the in-flight computation. This turns the N-clients serving plateau into
// fan-out: N ranks, cluster ShardReq routes and replication fetches share
// one preprocessing pass per batch. Frames are refcounted, so an entry can
// be evicted while sessions are still writing its bytes to their sockets.
type BatchCache = flight.Cache[BatchKey, *Frame]

// BatchCacheStats is the JSON form of the batch cache counters.
type BatchCacheStats = flight.Stats

// BatchKey identifies one materialized batch frame. Fingerprint pins the
// frame-determining spec parameters (SpecFingerprint), so a reconfigured
// server can never serve stale bytes out of a persisted or shared cache.
type BatchKey struct {
	Fingerprint uint64
	Epoch       int
	GlobalID    int
}

// NewBatchCache returns a cache bounded to budget bytes of frame payload.
func NewBatchCache(budget int64) *BatchCache {
	return flight.New[BatchKey, *Frame](budget, true)
}
