package figures

import (
	"bytes"
	"encoding/binary"
	"hash/fnv"
	"math"
	"sync"
	"testing"

	"repro/internal/datagen"
	"repro/internal/linalg"
)

// quickFig7 runs Fig7(quick) once for every test that reads its rows: at
// ≈ 9 s it is the slowest figure in quick mode.
var quickFig7 = sync.OnceValues(func() ([]Fig7Row, error) {
	var buf bytes.Buffer
	return Fig7(&buf, quick)
})

// TestFoldedPackagesMatchParentBits pins what the Shaheen-II simulator and the
// wind generator returned before they were folded into this package and into
// internal/datagen: the FNV-1a hash of the wind dataset's coordinates and
// speeds at Fig2's quick and full configurations, and every Fig7(quick) row's
// Cholesky and PMVN seconds.
func TestFoldedPackagesMatchParentBits(t *testing.T) {
	if !linalg.HasVectorKernels() {
		t.Skip("the parent's bits were recorded with the AVX2 kernels; the portable kernels round differently")
	}
	for _, c := range []struct {
		nx, ny, days int
		want         uint64
	}{
		{20, 16, 90, 0xabcfec1ef96a0ad1},
		{32, 26, 160, 0x671d13b7134bbe41},
	} {
		ds, err := datagen.GenerateWind(datagen.WindConfig{Nx: c.nx, Ny: c.ny, Days: c.days, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		put := func(v float64) { h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(v))) }
		for _, p := range ds.Geom.Pts {
			put(p.X)
			put(p.Y)
		}
		for _, row := range ds.Speeds {
			for _, v := range row {
				put(v)
			}
		}
		if got := h.Sum64(); got != c.want {
			t.Errorf("wind %dx%d, %d days: hash %#016x, parent %#016x", c.nx, c.ny, c.days, got, c.want)
		}
	}

	want := []struct {
		dim, nodes    int
		method        string
		chol, pmvnSec uint64
	}{
		{108900, 16, "dense", 0x404fdb302cee7597, 0x4053d3668e3ef274},
		{108900, 16, "tlr", 0x4030186255dcf2d6, 0x4053d3668e3ef274},
		{187489, 16, "dense", 0x40721f36f3a02e0e, 0x406be26eb80ed003},
		{187489, 16, "tlr", 0x4051baf6a8a292e8, 0x406be26eb80ed003},
		{108900, 64, "dense", 0x403957d3a40fcd94, 0x4042e9f46ed245ae},
		{108900, 64, "tlr", 0x401b930420f6f0b9, 0x4042e9f46ed245ae},
		{187489, 64, "dense", 0x4055893142982ad5, 0x405477031ceaf238},
		{187489, 64, "tlr", 0x40360965ad922d22, 0x405477031ceaf238},
		{266256, 128, "dense", 0x405f6e15ed8443b1, 0x405bfb1a5ca297e4},
		{266256, 128, "tlr", 0x404016682bd6d6cc, 0x405bfb1a5ca297e4},
		{360000, 128, "dense", 0x40718697090d3620, 0x40671dbc19c172a2},
		{360000, 128, "tlr", 0x40517bfc1ff5b098, 0x40671dbc19c172a2},
		{266256, 512, "dense", 0x404c228b9e75e90f, 0x4056a8531769a8e1},
		{266256, 512, "tlr", 0x402eff587a149914, 0x4056a8531769a8e1},
		{360000, 512, "dense", 0x405922215c4d4f24, 0x405eae49d16fc941},
		{360000, 512, "tlr", 0x403abfdd669bce84, 0x405eae49d16fc941},
	}
	rows, err := quickFig7()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(want) {
		t.Fatalf("%d Fig7 rows, parent %d", len(rows), len(want))
	}
	for i, r := range rows {
		w := want[i]
		if r.Dim != w.dim || r.Nodes != w.nodes || r.Method != w.method ||
			math.Float64bits(r.CholSec) != w.chol || math.Float64bits(r.PMVNSec) != w.pmvnSec {
			t.Errorf("Fig7 row %d: got {%d %d %s %#016x %#016x}, parent %+v", i,
				r.Dim, r.Nodes, r.Method, math.Float64bits(r.CholSec), math.Float64bits(r.PMVNSec), w)
		}
		if r.TotalSec != r.CholSec+r.PMVNSec {
			t.Errorf("Fig7 row %d: total %v is not chol + pmvn", i, r.TotalSec)
		}
	}
}
