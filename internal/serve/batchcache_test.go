package serve

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"lotus/internal/tensor"
)

func cacheKeyN(gid int) BatchKey {
	return BatchKey{Fingerprint: 0x107, Epoch: 0, GlobalID: gid}
}

// cacheFrame builds a pooled frame of n bytes all set to fill.
func cacheFrame(n int, fill byte) *Frame {
	box := frameBufFor(n)
	for i := 0; i < n; i++ {
		*box = append(*box, fill)
	}
	return newFrame(box)
}

func TestFrameRefcountLifecycle(t *testing.T) {
	f := cacheFrame(32, 0xab)
	if f.Size() != 32 {
		t.Fatalf("size %d, want 32", f.Size())
	}
	f.Retain() // 2 refs
	f.Release()
	if got := f.Bytes(); len(got) != 32 || got[0] != 0xab {
		t.Fatal("frame bytes gone while a reference is held")
	}
	f.Release() // last ref: recycled
	defer func() {
		if recover() == nil {
			t.Fatal("over-release did not panic")
		}
	}()
	f.Release()
}

func TestEncodeBatchFrameByteIdentity(t *testing.T) {
	m := &Batch{
		Epoch: 3, GlobalID: 17,
		Indices: []int{5, 9, 2}, Labels: []int{1, 0, 7},
		Dtype: tensor.Uint8, Shape: []int{3, 8, 8},
		U8: bytes.Repeat([]byte{0x5a}, 3*8*8),
	}
	want := EncodeBatch(m)
	for i := 0; i < 3; i++ { // repeated to exercise pooled-buffer reuse
		f := encodeBatchFrame(m)
		if !bytes.Equal(f.Bytes(), want) {
			t.Fatalf("pooled encode differs from EncodeBatch on round %d", i)
		}
		if f.Size() != int64(len(want)) {
			t.Fatalf("pooled frame size %d, want %d", f.Size(), len(want))
		}
		f.Release()
	}
}

// TestEncodeBatchFramePooledAllocs is the allocs/op guard for the pooled
// encode path: steady-state encoding must reuse pooled buffers, not allocate
// a fresh payload per batch like EncodeBatch does.
func TestEncodeBatchFramePooledAllocs(t *testing.T) {
	m := &Batch{
		Epoch: 0, GlobalID: 1,
		Indices: make([]int, 64), Labels: make([]int, 64),
		Dtype: tensor.Uint8, Shape: []int{64, 3, 32, 32},
	}
	for i := 0; i < 16; i++ { // warm the pools
		encodeBatchFrame(m).Release()
	}
	avg := testing.AllocsPerRun(500, func() {
		encodeBatchFrame(m).Release()
	})
	if avg >= 1.0 {
		t.Fatalf("pooled encode averages %.2f allocs/op, want < 1 (pool reuse)", avg)
	}
}

// The single-flight state machine, LRU order, abandon and timeout paths are
// tested once, over both waiting modes, in internal/flight. The tests below
// pin what the batch tier adds: pooled, refcounted Frames as the values.

// waitBatchWaiters spins until the cache counts n single-flight waits.
func waitBatchWaiters(t *testing.T, c *BatchCache, n int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for c.Stats().SingleflightWait < n {
		if time.Now().After(deadline) {
			t.Fatalf("%d waiters parked, want %d", c.Stats().SingleflightWait, n)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestBatchCacheSingleFlight: one claimer, K waiters on the same key. All
// waiters block until Fulfill and then observe the same frame; the counters
// show exactly one miss (one pipeline execution) and K waits, and once every
// waiter released its pre-paid reference only the cache's own remains.
func TestBatchCacheSingleFlight(t *testing.T) {
	const K = 8
	c := NewBatchCache(1 << 20)
	key := cacheKeyN(0)
	if !c.Claim(key) {
		t.Fatal("first Claim did not claim")
	}
	got := make([][]byte, K)
	var wg sync.WaitGroup
	for i := 0; i < K; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			f, err := c.Acquire(key, nil, func() (*Frame, error) {
				t.Errorf("waiter %d computed a claimed batch", i)
				return cacheFrame(64, 0), nil
			})
			if err != nil {
				t.Errorf("waiter %d: %v", i, err)
				return
			}
			got[i] = append([]byte(nil), f.Bytes()...)
			f.Release()
		}(i)
	}
	waitBatchWaiters(t, c, K)

	f := cacheFrame(64, 0x42)
	c.Fulfill(key, f)
	f.Release() // claimer's own reference
	wg.Wait()

	for i := range got {
		if len(got[i]) != 64 || got[i][0] != 0x42 {
			t.Fatalf("waiter %d observed wrong bytes", i)
		}
	}
	st := c.Stats()
	if st.Misses != 1 || st.SingleflightWait != K || st.Hits != 0 {
		t.Fatalf("stats %+v, want misses=1 waits=%d", st, K)
	}
	if n := f.refs.Load(); n != 1 {
		t.Fatalf("cached frame holds %d references at rest, want the cache's 1", n)
	}
	h, ok := c.TryGet(key)
	if !ok || h != f {
		t.Fatal("ready entry did not hit")
	}
	h.Release()
}

// TestBatchCacheByteBudget: the budget bounds resident frame bytes, an
// evicted frame stays valid for the fulfiller still holding it, and a frame
// larger than the whole budget still serves its waiter (publish first, evict
// second) but does not stay resident.
func TestBatchCacheByteBudget(t *testing.T) {
	c := NewBatchCache(250)
	for gid := 0; gid < 10; gid++ {
		if !c.Claim(cacheKeyN(gid)) {
			t.Fatalf("claim %d failed", gid)
		}
		f := cacheFrame(100, byte(gid))
		c.Fulfill(cacheKeyN(gid), f)
		// The fulfiller's reference outlives eviction: bytes stay valid.
		if f.Bytes()[0] != byte(gid) {
			t.Fatalf("frame %d corrupted after fulfill", gid)
		}
		f.Release()
		if st := c.Stats(); st.BytesUsed > 250 {
			t.Fatalf("after insert %d: %d bytes resident, budget 250", gid, st.BytesUsed)
		}
	}

	key := cacheKeyN(99)
	if !c.Claim(key) {
		t.Fatal("oversize claim failed")
	}
	waiterGot := make(chan int64, 1)
	go func() {
		f, err := c.Acquire(key, nil, func() (*Frame, error) { return cacheFrame(1, 0), nil })
		if err != nil {
			waiterGot <- -1
			return
		}
		waiterGot <- f.Size()
		f.Release()
	}()
	waitBatchWaiters(t, c, 1)
	big := cacheFrame(1000, 0xee)
	c.Fulfill(key, big)
	big.Release()
	if n := <-waiterGot; n != 1000 {
		t.Fatalf("waiter on oversize frame got %d bytes, want 1000", n)
	}
	if st := c.Stats(); st.BytesUsed > 250 {
		t.Fatalf("oversize frame stayed resident: %d bytes", st.BytesUsed)
	}
	if h, ok := c.TryGet(key); ok {
		h.Release()
		t.Fatal("oversize entry still cached")
	}
}

// TestBatchCacheConcurrentChurn hammers one small cache from many goroutines
// mixing claims, fulfills, hits, waits and evictions over pooled frames: the
// -race workout for frame recycling under the single-flight state machine.
func TestBatchCacheConcurrentChurn(t *testing.T) {
	c := NewBatchCache(400) // 4 frames of 100: constant eviction pressure
	const (
		workers = 8
		keys    = 16
		rounds  = 200
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				gid := (w + r) % keys
				f, err := c.Acquire(cacheKeyN(gid), nil, func() (*Frame, error) {
					return cacheFrame(100, byte(gid)), nil
				})
				if err != nil {
					t.Errorf("worker %d round %d: %v", w, r, err)
					return
				}
				if f.Size() != 100 || f.Bytes()[0] != byte(gid) {
					t.Errorf("worker %d round %d: wrong bytes for gid %d", w, r, gid)
				}
				f.Release()
			}
		}(w)
	}
	wg.Wait()
	st := c.Stats()
	if st.BytesUsed > 400 {
		t.Fatalf("budget exceeded at rest: %d", st.BytesUsed)
	}
	if total := st.Hits + st.Misses + st.SingleflightWait + st.Bypassed; total != workers*rounds {
		t.Fatalf("counters %+v count %d lookups, want %d", st, total, workers*rounds)
	}
}
