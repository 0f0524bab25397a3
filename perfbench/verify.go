package main

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"runtime"
	"unsafe"

	"lotus/internal/clock"
	"lotus/internal/pipeline"
	"lotus/internal/serve"
	"lotus/internal/tensor"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// batchHash hashes a batch's decoded content — epoch, global id, indices,
// labels, dtype, shape and tensor bytes — so the check does not depend on
// the wire format or its stream checksum. CRC-32C detects every single-byte
// change.
func batchHash(epoch, gid int, indices, labels []int, dtype tensor.DType, shape []int, u8 []uint8, f32 []float32) uint32 {
	var buf []byte
	putInts := func(xs ...int) {
		for _, x := range xs {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(x))
		}
	}
	putInts(epoch, gid, len(indices))
	putInts(indices...)
	putInts(len(labels))
	putInts(labels...)
	putInts(int(dtype), len(shape))
	putInts(shape...)
	putInts(len(u8), len(f32))
	sum := crc32.Update(0, castagnoli, buf)
	sum = crc32.Update(sum, castagnoli, u8)
	if len(f32) > 0 {
		sum = crc32.Update(sum, castagnoli, unsafe.Slice((*byte)(unsafe.Pointer(&f32[0])), 4*len(f32)))
	}
	return sum
}

func wireBatchHash(m *serve.Batch) uint32 {
	return batchHash(m.Epoch, m.GlobalID, m.Indices, m.Labels, m.Dtype, m.Shape, m.U8, m.F32)
}

func pipelineBatchHash(epoch int, b *pipeline.Batch) uint32 {
	return batchHash(epoch, b.ID, b.Indices, b.Labels, b.Data.Dtype, b.Data.Shape, b.Data.U8, b.Data.F32)
}

type batchKey struct{ epoch, gid int }

// verify compares every delivered batch with the reference and counts
// attempted and failed batches: a batch fails when its request errored, it
// arrived out of plan order, or its content differs from the reference.
func (b *bench) verify(wins ...*window) (*result, error) {
	epochs := map[int]bool{}
	for _, win := range wins {
		for _, runs := range win.runs {
			for _, r := range runs {
				epochs[r.epoch] = true
			}
		}
	}
	ref, err := b.reference(epochs)
	if err != nil {
		return nil, err
	}
	res := &result{}
	for _, win := range wins {
		for _, runs := range win.runs {
			for _, r := range runs {
				res.Attempted += len(r.ids)
				res.Failed += checkRun(r, ref)
			}
		}
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// checkRun returns how many of the run's requested batches failed.
func checkRun(r epochRun, ref map[batchKey]uint32) int {
	failed := len(r.ids) - len(r.arrivals)
	if r.err != nil && failed == 0 {
		failed = 1 // the request failed after its last batch arrived
	}
	for i, a := range r.arrivals {
		want, ok := ref[batchKey{r.epoch, a.gid}]
		if i >= len(r.ids) || a.epoch != r.epoch || a.gid != r.ids[i] || !ok || a.sum != want {
			failed++
		}
	}
	return failed
}

// reference hashes every batch of the given epochs from an in-process
// DataLoader over the same spec: the single-client ground truth. It runs
// outside the timed window and outside setup_s. A private sample cache makes
// each epoch after the first pay only the random suffix.
func (b *bench) reference(epochs map[int]bool) (map[batchKey]uint32, error) {
	fp, ok := serve.PrefixFingerprint(b.spec, pipeline.RealData, materializeDim)
	if !ok {
		return nil, fmt.Errorf("reference: spec has no deterministic prefix")
	}
	sc := pipeline.NewSampleCache(sampleCacheBytes, true)
	ref := map[batchKey]uint32{}
	for ep := range epochs {
		err := b.loadEpoch(ep, runtime.GOMAXPROCS(0), sc, fp, nil, func(bt *pipeline.Batch) {
			ref[batchKey{ep, bt.ID}] = pipelineBatchHash(ep, bt)
		})
		if err != nil {
			return nil, fmt.Errorf("reference epoch %d: %w", ep, err)
		}
	}
	return ref, nil
}

// loadEpoch runs one epoch of the spec through an in-process DataLoader and
// hands every batch to fn in plan order.
func (b *bench) loadEpoch(epoch, workers int, sc *pipeline.SampleCache, fp uint64, hooks *pipeline.Hooks, fn func(*pipeline.Batch)) error {
	cfg := pipeline.Config{
		BatchSize:      b.spec.BatchSize,
		NumWorkers:     workers,
		Shuffle:        b.spec.Shuffle,
		PinMemory:      b.spec.PinMemory,
		Seed:           b.spec.Seed,
		Epoch:          epoch,
		Hooks:          hooks,
		Mode:           pipeline.RealData,
		MaterializeDim: materializeDim,
		Dispatch:       b.spec.Dispatch,
	}
	if sc != nil {
		cfg.SampleCache, cfg.PrefixFP = sc, fp
	}
	clk := clock.NewReal()
	var err error
	clk.Run("perfbench-loader", func(p clock.Proc) {
		it := pipeline.NewDataLoader(clk, b.spec.Dataset(hooks), cfg).Start(p)
		defer it.Drain(p)
		for {
			bt, ok := it.Next(p)
			if !ok {
				err = it.Err()
				return
			}
			fn(bt)
		}
	})
	return err
}
