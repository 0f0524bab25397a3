package pipeline

import (
	"sync/atomic"

	"lotus/internal/flight"
	"lotus/internal/imaging"
	"lotus/internal/native"
	"lotus/internal/store"
	"lotus/internal/tensor"
)

// SampleCache is the split-point sample cache: materialized post-prefix
// samples keyed by (prefix fingerprint, dataset index). The prefix of a
// Compose — its maximal run of deterministic transforms, typically storage
// read + decode + deterministic resize — produces the same bytes for a given
// sample in every epoch and every session, so the first epoch materializes
// each sample once and epochs 2..N (and concurrent sessions on the same
// spec) re-run only the cheap random suffix. This is the layer below the
// materialized-batch cache: a batch-cache hit never reaches the pipeline at
// all; a batch-cache miss on an augmented spec turns into prefix hits plus a
// suffix recompute instead of a full decode.
//
// It is the shared single-flight tier (flight.Cache) over immutable sample
// snapshots. Waiting is its mode: blocking when the pipeline's procs run on
// the wall clock (real data or emulate-time serving); non-blocking under a
// simulated clock, whose procs must never park on channels the clock cannot
// see and so compute the prefix privately past an in-flight entry.
type SampleCache struct {
	*flight.Cache[SampleKey, *cachedSample]
}

// SampleCacheStats is the JSON form of the sample cache counters.
type SampleCacheStats = flight.Stats

// SampleKey identifies one materialized post-prefix sample. PrefixFP pins
// every byte-affecting parameter of the prefix (spec shape, mode,
// materialize cap, the prefix op list), so reconfigured pipelines can never
// share stale pixels. Epoch is deliberately absent: prefix bytes are
// epoch-independent, which is the entire point of the split.
type SampleKey struct {
	PrefixFP uint64
	Index    int
}

// cachedSample is an immutable snapshot of a post-prefix sample. The meta
// Sample carries the scalar fields with payload pointers nil'd; at most one
// of img/vol/ten holds the real payload (all nil in simulated mode, where
// samples are metadata plus a modeled size). Readers copy out, never alias:
// cached pixels are shared across workers and epochs, so handing out the
// backing buffer would let a random suffix mutate everyone's prefix.
type cachedSample struct {
	refs atomic.Int32
	meta Sample
	img  *imaging.Image
	vol  *imaging.Volume
	ten  *tensor.Tensor
	size int64
}

// snapshotSample clones a just-computed post-prefix sample into pooled
// buffers. The caller keeps its own working payload. The returned snapshot
// holds one reference (the cache's own).
func snapshotSample(s Sample) *cachedSample {
	cs := &cachedSample{meta: s}
	cs.meta.Image, cs.meta.Volume, cs.meta.Tensor = nil, nil, nil
	switch {
	case s.Image != nil:
		cs.img = imaging.GetImage(s.Image.W, s.Image.H)
		copy(cs.img.Pix, s.Image.Pix)
		cs.size = int64(len(cs.img.Pix))
	case s.Volume != nil:
		cs.vol = imaging.GetVolume(s.Volume.D, s.Volume.H, s.Volume.W)
		copy(cs.vol.Vox, s.Volume.Vox)
		cs.size = int64(len(cs.vol.Vox)) * 4
	case s.Tensor != nil && !s.Tensor.IsMeta():
		cs.ten = s.Tensor.Clone()
		cs.size = int64(s.Tensor.Bytes())
	default:
		// Simulated sample: no payload, but the entry still occupies its
		// modeled footprint so eviction behaves like the real cache would.
		cs.size = int64(s.RawBytes())
	}
	cs.refs.Store(1)
	return cs
}

// Size, Retain and Release make a snapshot a flight.Value.
func (cs *cachedSample) Size() int64 { return cs.size }

func (cs *cachedSample) Retain() { cs.refs.Add(1) }

func (cs *cachedSample) Release() {
	if cs.refs.Add(-1) != 0 {
		return
	}
	cs.img.Release()
	cs.vol.Release()
	cs.img, cs.vol, cs.ten = nil, nil, nil
}

// restore clones the snapshot out into fresh pooled buffers, charging the
// modeled copy cost in simulated mode. The result is owned by the caller
// exactly as if the prefix had just run.
func (cs *cachedSample) restore(ctx *Ctx) Sample {
	s := cs.meta
	switch {
	case cs.img != nil:
		im := imaging.GetImage(cs.img.W, cs.img.H)
		copy(im.Pix, cs.img.Pix)
		s.Image = im
	case cs.vol != nil:
		v := imaging.GetVolume(cs.vol.D, cs.vol.H, cs.vol.W)
		copy(v.Vox, cs.vol.Vox)
		s.Volume = v
	case cs.ten != nil:
		s.Tensor = cs.ten.Clone()
	}
	if !ctx.Real() {
		ctx.Work(native.Call{Kernel: "memcpy", Bytes: s.RawBytes()})
	}
	return s
}

// NewSampleCache returns a cache bounded to budget bytes of materialized
// sample payload; blocking selects whether requesters may park on another
// worker's in-flight computation (see SampleCache).
func NewSampleCache(budget int64, blocking bool) *SampleCache {
	return &SampleCache{flight.New[SampleKey, *cachedSample](budget, blocking)}
}

// SetDisk attaches the persistent tier. Call before the cache is shared
// across goroutines.
func (sc *SampleCache) SetDisk(st *store.Store) { sc.SetLower(sampleDisk{st}) }

func diskSampleKey(key SampleKey) store.Key {
	return store.Key{Kind: store.KindSample, FP: key.PrefixFP, A: uint64(key.Index)}
}

// sampleDisk is the SampleCache's lower tier: claimed keys restore from it
// before running the prefix, and published snapshots and eviction victims
// spill to it asynchronously, so a restart (or a sibling job on the same
// spec) warm-starts instead of recomputing.
type sampleDisk struct{ st *store.Store }

// Load restores a snapshot. An undecodable record (despite the store's
// checksum, e.g. a codec version skew) is dropped from the disk index so it
// is recomputed and re-spilled instead of failing forever.
func (d sampleDisk) Load(key SampleKey) (*cachedSample, bool) {
	raw, ok := d.st.Get(diskSampleKey(key), nil)
	if !ok {
		return nil, false
	}
	cs, err := decodeSnapshot(raw)
	if err != nil {
		d.st.Drop(diskSampleKey(key))
		return nil, false
	}
	return cs, true
}

// Store spills a snapshot unless the disk already holds it, which spares
// the encode for victims that were loaded from disk in the first place.
func (d sampleDisk) Store(key SampleKey, cs *cachedSample) {
	if k := diskSampleKey(key); !d.st.Contains(k) {
		d.st.PutAsync(k, encodeSnapshot(cs))
	}
}

// materialize returns the post-prefix sample for s from the cache: a hit,
// disk load or wait restores a copy of the snapshot; a computed prefix
// (claimed or bypassed) hands back its own working sample, so a miss costs
// only the snapshot the cache keeps. (A bypass snapshots too, and drops it:
// under a simulated clock snapshots hold no pixels, and on the wall clock a
// bypass follows a 30 s wait.)
func (sc *SampleCache) materialize(ctx *Ctx, c *Compose, pid, batchID, split int, s Sample) Sample {
	var out Sample
	computed := false
	// Acquire cannot fail: compute returns no error and nothing cancels.
	cs, _ := sc.Acquire(SampleKey{PrefixFP: ctx.PrefixFP, Index: s.Index}, nil,
		func() (*cachedSample, error) {
			out, computed = c.applyRange(ctx, pid, batchID, s, 0, split), true
			return snapshotSample(out), nil
		})
	if !computed {
		out = cs.restore(ctx)
	}
	cs.Release()
	return out
}
