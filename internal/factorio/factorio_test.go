package factorio

import (
	"bytes"
	"errors"
	"hash/crc32"
	"math"
	"os"
	"testing"

	"repro/internal/engine"
	"repro/internal/linalg"
	"repro/internal/mvn"
	"repro/internal/taskrt"
	"repro/internal/tile"
)

// mat fills a deterministic pseudo-random matrix (xorshift over the seed),
// so every test factor has distinctive, reproducible bit patterns.
func mat(r, c int, seed uint64) *linalg.Matrix {
	m := linalg.NewMatrix(r, c)
	x := seed*2654435761 + 1
	for i := range m.Data {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		m.Data[i] = float64(x%100000)/99991 + 0.5
	}
	return m
}

// testFactors builds one hand-assembled factor per layout over n=10, ts=4
// (tile dims 4,4,2 — a ragged edge on purpose): all dense, TLR (with one
// rank-0 tile), and an adaptive mix holding both wire kinds off the diagonal.
func testFactors(t testing.TB) map[string]*mvn.Factor {
	t.Helper()
	const n, ts = 10, 4
	dims := func(i int) int {
		if i == 2 {
			return 2
		}
		return 4
	}
	grid := func(seed uint64, off func(i, j int) tile.Tile) *mvn.Factor {
		g, err := engine.NewGridChecked(n, ts)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			g.Set(i, i, &tile.DenseF64{D: mat(dims(i), dims(i), seed+uint64(i))})
			for j := 0; j < i; j++ {
				g.Set(i, j, off(i, j))
			}
		}
		return mvn.NewFactor(g)
	}
	lowRank := func(i, j, k int, seed uint64) *tile.LowRank {
		return &tile.LowRank{M: dims(i), N: dims(j), U: mat(dims(i), k, seed), V: mat(dims(j), k, seed+1)}
	}
	return map[string]*mvn.Factor{
		"dense": grid(100, func(i, j int) tile.Tile {
			return &tile.DenseF64{D: mat(dims(i), dims(j), uint64(10*i+j))}
		}),
		"tlr": grid(200, func(i, j int) tile.Tile {
			if i == 2 && j == 0 { // one rank-0 tile to cover K=0
				return &tile.LowRank{M: dims(i), N: dims(j)}
			}
			return lowRank(i, j, 1, uint64(300+10*i+j))
		}),
		"adaptive": grid(400, func(i, j int) tile.Tile {
			if i == 2 && j == 0 {
				return lowRank(i, j, 2, 501)
			}
			return &tile.DenseF64{D: mat(dims(i), dims(j), 503)}
		}),
	}
}

func encode(t testing.TB, keyBlob []byte, f *mvn.Factor) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Encode(&buf, keyBlob, f); err != nil {
		t.Fatalf("encode: %v", err)
	}
	return buf.Bytes()
}

// TestRoundTripBitIdentical checks encode→decode→encode fixpoint for every
// factor kind: the re-encoded container is byte-for-byte the original, so
// the decoded factor carries exactly the bits that were stored.
func TestRoundTripBitIdentical(t *testing.T) {
	key := []byte("problem-key-blob")
	for name, f := range testFactors(t) {
		t.Run(name, func(t *testing.T) {
			enc := encode(t, key, f)
			gotKey, dec, err := Decode(enc)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if !bytes.Equal(gotKey, key) {
				t.Errorf("key blob %q, want %q", gotKey, key)
			}
			if dec.N() != f.N() || dec.TS() != f.TS() || dec.NT() != f.NT() {
				t.Fatalf("decoded shape %d/%d/%d, want %d/%d/%d",
					dec.N(), dec.TS(), dec.NT(), f.N(), f.TS(), f.NT())
			}
			if re := encode(t, key, dec); !bytes.Equal(re, enc) {
				t.Errorf("re-encoded container differs from the original (%d vs %d bytes)", len(re), len(enc))
			}
		})
	}
}

// TestDecodeTruncation feeds every proper prefix of a valid container to
// Decode: each must fail with a typed error, never panic, never succeed.
func TestDecodeTruncation(t *testing.T) {
	enc := encode(t, []byte("k"), testFactors(t)["adaptive"])
	for i := 0; i < len(enc); i++ {
		_, _, err := Decode(enc[:i])
		if err == nil {
			t.Fatalf("truncation to %d/%d bytes decoded successfully", i, len(enc))
		}
		if !errors.Is(err, ErrFormat) {
			t.Fatalf("truncation to %d bytes: error %v, want ErrFormat", i, err)
		}
	}
}

// TestDecodeCorruption flips every byte of a valid container in turn: each
// flip must surface as a typed error (a payload flip as ErrChecksum), and
// none may panic or decode.
func TestDecodeCorruption(t *testing.T) {
	enc := encode(t, []byte("key-blob"), testFactors(t)["tlr"])
	checksum := 0
	for i := 0; i < len(enc); i++ {
		mut := make([]byte, len(enc))
		copy(mut, enc)
		mut[i] ^= 0x40
		_, _, err := Decode(mut)
		if err == nil {
			t.Fatalf("flipped byte %d decoded successfully", i)
		}
		ok := errors.Is(err, ErrFormat) || errors.Is(err, ErrChecksum) ||
			errors.Is(err, ErrVersion) || errors.Is(err, ErrFeature)
		if !ok {
			t.Fatalf("flipped byte %d: untyped error %v", i, err)
		}
		if errors.Is(err, ErrChecksum) {
			checksum++
		}
	}
	// The overwhelming share of the file is section payload, where a flip
	// must be caught by the section CRC specifically.
	if checksum < len(enc)/2 {
		t.Errorf("only %d/%d flips surfaced as ErrChecksum", checksum, len(enc))
	}
}

// TestDecodeGates checks the version/feature gates and the magic check.
func TestDecodeGates(t *testing.T) {
	enc := encode(t, nil, testFactors(t)["dense"])

	future := make([]byte, len(enc))
	copy(future, enc)
	future[8] = Version + 1 // container version field
	if _, _, err := Decode(future); !errors.Is(err, ErrVersion) {
		t.Errorf("future version: error %v, want ErrVersion", err)
	}

	feat := make([]byte, len(enc))
	copy(feat, enc)
	feat[12] |= 0x01 // feature bitmask
	if _, _, err := Decode(feat); !errors.Is(err, ErrFeature) {
		t.Errorf("unknown feature bit: error %v, want ErrFeature", err)
	}

	magic := make([]byte, len(enc))
	copy(magic, enc)
	magic[0] ^= 0xFF
	if _, _, err := Decode(magic); !errors.Is(err, ErrFormat) {
		t.Errorf("bad magic: error %v, want ErrFormat", err)
	}
}

// TestEncodeRejectsUnassignedTile: a grid with a hole is an error, not a
// container that cannot be decoded.
func TestEncodeRejectsUnassignedTile(t *testing.T) {
	g := engine.NewGrid(8, 4)
	for i := 0; i < 2; i++ {
		g.Set(i, i, &tile.DenseF64{D: mat(4, 4, uint64(i))})
	}
	var buf bytes.Buffer
	if err := Encode(&buf, nil, mvn.NewFactor(g)); err == nil {
		t.Error("encoding a grid without its (1,0) tile succeeded")
	}
}

// TestDecodeRejectsShapeLies corrupts structural facts that individual
// section CRCs cannot catch (the lie is checksummed too): a tile payload
// whose shape disagrees with the meta header must be refused after the CRC
// is recomputed to match.
func TestDecodeRejectsShapeLies(t *testing.T) {
	// A dense factor whose meta says n=10 but whose tiles are for n=6.
	g := engine.NewGrid(6, 4)
	for i := 0; i < g.NT; i++ {
		for j := 0; j <= i; j++ {
			g.Set(i, j, &tile.DenseF64{D: mat(g.TileRows(i), g.TileRows(j), uint64(i*10+j))})
		}
	}
	enc := encode(t, nil, mvn.NewFactor(g))
	if enc[metaOff] != kindGrid || enc[metaOff+1] != 6 {
		t.Fatalf("meta starts %d/%d, want kind %d n 6 (layout drifted?)",
			enc[metaOff], enc[metaOff+1], kindGrid)
	}
	enc[metaOff+1] = 10
	fixCRC(enc[metaOff+metaLen:], enc[metaOff:metaOff+metaLen])
	if _, _, err := Decode(enc); !errors.Is(err, ErrFormat) {
		t.Errorf("shape lie: error %v, want ErrFormat", err)
	}
}

// metaOff is where the meta payload starts in a container with an empty key
// blob: the 24-byte header, the key section (id u32, len u64, no payload,
// crc u32), then the meta section's own 12-byte header.
const metaOff = 24 + 16 + 12

// TestDecodeReservedKinds: kind bytes 1 and 2 (the per-layout encodings no
// store ever held) and set reserved meta bytes are malformed, with a valid
// checksum or not.
func TestDecodeReservedKinds(t *testing.T) {
	for _, patch := range []struct {
		off int
		val byte
	}{{0, 1}, {0, 2}, {0, 4}, {9, 1}, {metaLen - 1, 0x80}} {
		enc := encode(t, nil, testFactors(t)["tlr"])
		enc[metaOff+patch.off] = patch.val
		fixCRC(enc[metaOff+metaLen:], enc[metaOff:metaOff+metaLen])
		if _, _, err := Decode(enc); !errors.Is(err, ErrFormat) {
			t.Errorf("meta byte %d = %d: error %v, want ErrFormat", patch.off, patch.val, err)
		}
	}
}

// TestDecodeRejectsNonCanonical: sections out of order and bytes after the
// last section are refused, so every accepted input is an Encode output.
func TestDecodeRejectsNonCanonical(t *testing.T) {
	enc := encode(t, nil, testFactors(t)["dense"])
	if _, _, err := Decode(append(enc[:len(enc):len(enc)], 0)); !errors.Is(err, ErrFormat) {
		t.Errorf("trailing byte: error %v, want ErrFormat", err)
	}
	// Swap the (empty) key section with the meta section.
	key, meta := enc[24:24+16], enc[24+16:metaOff+metaLen+4]
	swapped := append(append(append([]byte{}, enc[:24]...), meta...), key...)
	swapped = append(swapped, enc[metaOff+metaLen+4:]...)
	if _, _, err := Decode(swapped); !errors.Is(err, ErrFormat) {
		t.Errorf("sections out of order: error %v, want ErrFormat", err)
	}
}

// TestDecodeParentContainer: testdata/parent_tlr_n16_ts8.fac was written by
// SaveFactor at commit e8c79e4 (4×4 grid, exponential range 0.3, TLR, tile 8,
// tol 1e-4) — the last commit with per-layout factor types. It must decode,
// answer the query the parent answered with the parent's bits, and re-encode
// to the same file.
func TestDecodeParentContainer(t *testing.T) {
	file, err := os.ReadFile("testdata/parent_tlr_n16_ts8.fac")
	if err != nil {
		t.Fatal(err)
	}
	key, f, err := Decode(file)
	if err != nil {
		t.Fatal(err)
	}
	if f.N() != 16 || f.TS() != 8 {
		t.Fatalf("decoded n=%d ts=%d, want 16 and 8", f.N(), f.TS())
	}
	if mix := f.G.Mix(); mix.Dense64 != 2 || mix.LowRank != 1 {
		t.Errorf("decoded mix %+v, want 2 dense diagonal tiles and 1 low-rank tile", mix)
	}
	if re := encode(t, key, f); !bytes.Equal(re, file) {
		t.Errorf("re-encoded container differs from the parent's file (%d vs %d bytes)", len(re), len(file))
	}
	if !linalg.HasVectorKernels() {
		t.Skip("the parent's probability was recorded with the AVX2 kernels")
	}
	a, b := make([]float64, 16), make([]float64, 16)
	for i := range a {
		a[i], b[i] = -1, math.Inf(1)
	}
	rt := taskrt.New(2)
	defer rt.Shutdown()
	const parentProb = 0x3fc45c52bb5827cf
	if got := math.Float64bits(mvn.PMVN(rt, f, a, b, mvn.Options{N: 300}).Prob); got != parentProb {
		t.Errorf("probability bits %#x, the parent computed %#x", got, uint64(parentProb))
	}
}

// fixCRC recomputes a section CRC in place so a deliberate payload
// mutation tests structural validation, not the checksum.
func fixCRC(dst, payload []byte) {
	c := crc32.Checksum(payload, castagnoli)
	dst[0], dst[1], dst[2], dst[3] = byte(c), byte(c>>8), byte(c>>16), byte(c>>24)
}

// TestEncodePackedFactorColumnMajor: a factor whose dense off-diagonal tiles
// NewFactor re-laid in place encodes to the bytes of the same grid before
// the re-lay — the store format stays column-major. The tiles are 13 and 4
// rows, so the packed order differs from column-major (two full panels and
// a ragged row), and the grid holds both wire kinds. Decoded, the file holds
// its dense tiles packed and re-encodes to itself: the round trip of a packed
// dense off-diagonal tile.
func TestEncodePackedFactorColumnMajor(t *testing.T) {
	const n, ts = 30, 13
	g, err := engine.NewGridChecked(n, ts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < g.NT; i++ {
		g.Set(i, i, &tile.DenseF64{D: mat(g.TileRows(i), g.TileRows(i), uint64(i))})
		for j := 0; j < i; j++ {
			r, c := g.TileRows(i), g.TileRows(j)
			if i == 2 && j == 1 {
				g.Set(i, j, &tile.LowRank{M: r, N: c, U: mat(r, 2, 8), V: mat(c, 2, 9)})
			} else {
				g.Set(i, j, &tile.DenseF64{D: mat(r, c, uint64(10*i+j))})
			}
		}
	}
	colMajor := append([]float64(nil), g.At(1, 0).(*tile.DenseF64).D.Data...)
	key := []byte("packed")
	want := encode(t, key, &mvn.Factor{G: g}) // the grid as assembled, not yet re-laid
	f := mvn.NewFactor(g)
	p, ok := g.At(1, 0).(*tile.PackedF64)
	if !ok {
		t.Fatalf("tile (1,0) is %T after NewFactor, want *tile.PackedF64", g.At(1, 0))
	}
	if equalBits(p.P.Data, colMajor) {
		t.Fatal("the packed order of a 13-row tile equals its column-major order: the test is vacuous")
	}
	if got := encode(t, key, f); !bytes.Equal(got, want) {
		t.Errorf("packed factor encodes to %d bytes differing from the column-major grid's %d", len(got), len(want))
	}
	_, dec, err := Decode(want)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < dec.NT(); i++ {
		if _, ok := dec.G.At(i, 0).(*tile.PackedF64); !ok {
			t.Errorf("decoded tile (%d,0) is %T, want *tile.PackedF64", i, dec.G.At(i, 0))
		}
	}
	if got := encode(t, key, dec); !bytes.Equal(got, want) {
		t.Errorf("decoded factor re-encodes to %d bytes differing from the file's %d", len(got), len(want))
	}
}

func equalBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i, v := range a {
		if math.Float64bits(v) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestDecodeParentMixedContainer: testdata/parent_mixed_n42_ts16.fac was
// written by an earlier commit (a dense Matérn factor at n = 42, tile 16, its
// tile (2,0) narrowed to float32). Tile kind tag 2, dense float32, is retired:
// the file is malformed, so a store reports it and rebuilds the factor.
func TestDecodeParentMixedContainer(t *testing.T) {
	file, err := os.ReadFile("testdata/parent_mixed_n42_ts16.fac")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Decode(file); !errors.Is(err, ErrFormat) {
		t.Errorf("a container holding a float32 tile: error %v, want ErrFormat", err)
	}
}
