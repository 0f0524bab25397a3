package serve

import (
	"lotus/internal/store"
)

// Disk-tier glue: the persistent store sits under both memory caches as
// their flight.Lower tier.
//
//   - Batch frames: batchDisk below. Every frame the BatchCache publishes
//     (and every eviction victim) spills asynchronously, and every claim
//     consults the disk first, so a restarted (or sibling) server serves
//     previously produced frames byte-identical without recomputing — the
//     tf.data-service cross-job reuse model over a Seneca-style SSD tier.
//   - Sample snapshots: the SampleCache's own adapter (SetDisk); the server
//     only threads the store through.
//
// Both tiers share one Store (one budget, one segment sequence, one
// manifest); the Kind byte in the key keeps the namespaces disjoint.

func diskBatchKey(k BatchKey) store.Key {
	return store.Key{Kind: store.KindBatch, FP: k.Fingerprint,
		A: uint64(k.Epoch), B: uint64(k.GlobalID)}
}

// batchDisk is the BatchCache's lower tier.
type batchDisk struct{ st *store.Store }

// Load reads one encoded batch frame into a pooled Frame. The store
// verifies the record checksum; a miss (or corruption, degraded to a miss)
// sends the pooled buffer straight back to its pool.
func (d batchDisk) Load(key BatchKey) (*Frame, bool) {
	var box *[]byte
	_, ok := d.st.Get(diskBatchKey(key), func(n int) []byte {
		box = frameBufFor(n)
		*box = (*box)[:n]
		return *box
	})
	if !ok {
		if box != nil {
			*box = (*box)[:0]
			frameBufPool.Put(box)
		}
		return nil, false
	}
	return newFrame(box), true
}

// Store heads a frame for disk without blocking the serving path (the
// store copies the bytes before PutAsync returns and dedups keys already on
// disk).
func (d batchDisk) Store(key BatchKey, f *Frame) {
	d.st.PutAsync(diskBatchKey(key), f.Bytes())
}

// DiskCacheStats reports the persistent tier's counters; ok is false when
// the disk cache is disabled.
func (s *Server) DiskCacheStats() (store.Stats, bool) {
	if s.disk == nil {
		return store.Stats{}, false
	}
	return s.disk.Stats(), true
}

// FlushDiskCache drains queued spills and durably writes the store
// manifest — test and checkpoint hook; the server also flushes on Shutdown.
func (s *Server) FlushDiskCache() error {
	if s.disk == nil {
		return nil
	}
	return s.disk.Flush()
}
