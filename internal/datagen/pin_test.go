package datagen

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"repro/internal/linalg"
)

// TestSyntheticDatasetMatchesParentBits pins the FNV-1a hash of a synthetic
// dataset's field values, posterior covariance (column-major, every entry)
// and posterior mean, recorded before the set-up algebra ran as tasks: the
// benchmark's crd_2k shape (50×50 grid, 625 observations, "medium", seed 1)
// and a small one. The task forms must give the serial kernels' bits at any
// worker count, so these hold under -cpu 1,2 as well.
func TestSyntheticDatasetMatchesParentBits(t *testing.T) {
	if !linalg.HasVectorKernels() {
		t.Skip("the parent's bits were recorded with the AVX2 kernels; the portable kernels round differently")
	}
	for _, c := range []struct {
		side, obs int
		level     string
		seed      int64
		want      uint64
	}{
		{50, 625, "medium", 1, 0xe2e625709faef8ed},
		{13, 40, "strong", 3, 0x180b555a1f337b7d},
	} {
		ds, err := NewSyntheticDataset(c.side, c.obs, c.level, rand.New(rand.NewSource(c.seed)))
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		put := func(vs []float64) {
			for _, v := range vs {
				h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(v)))
			}
		}
		put(ds.Field.Values)
		for j := 0; j < ds.PostCov.Cols; j++ {
			put(ds.PostCov.Col(j))
		}
		put(ds.PostMu)
		if got := h.Sum64(); got != c.want {
			t.Errorf("%d×%d grid, %d obs, %s, seed %d: hash %#016x, parent %#016x", c.side, c.side, c.obs, c.level, c.seed, got, c.want)
		}
	}
}
