package tile

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"repro/internal/linalg"
)

// Binary tile codec: the per-representation encode/decode the persistent
// factor store is built on. Every representation round-trips bit-exactly
// (float payloads are raw IEEE-754 bit patterns, little endian), so a
// deserialized factor answers queries bit-identically to the in-memory
// factor it was encoded from.
//
// The codec works on byte slices, not streams: the caller (the factorio
// container) hands it one checksummed section, so every length check below
// is against data whose integrity was already verified. Decoders never
// panic and never allocate more than the input can justify — dimensions are
// validated against the remaining payload before any buffer is sized from
// them.

// ErrTileCodec is wrapped by every structural decode failure (truncated
// payload, dimension overflow, unknown representation).
var ErrTileCodec = errors.New("tile: malformed tile encoding")

func codecErr(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrTileCodec, fmt.Sprintf(format, args...))
}

// Wire kind tags. These are persistent format values — append only, never
// renumber. They deliberately mirror Kind but are decoupled from it so a
// Kind reordering in memory cannot silently corrupt stored factors.
// Tag 2 named a dense float32 tile, a representation no longer built; it
// stays reserved and decodes as an error.
const (
	wireDenseF64 = byte(1)
	wireDenseF32 = byte(2)
	wireLowRank  = byte(3)
)

// appendU32 appends v little endian.
func appendU32(buf []byte, v uint32) []byte {
	return binary.LittleEndian.AppendUint32(buf, v)
}

// decodeU32 reads one u32, returning the remainder.
func decodeU32(b []byte) (uint32, []byte, error) {
	if len(b) < 4 {
		return 0, nil, codecErr("truncated u32 (%d bytes left)", len(b))
	}
	return binary.LittleEndian.Uint32(b), b[4:], nil
}

// checkDims validates a decoded (rows, cols, elemSize) triple against the
// remaining payload, so a corrupt or hostile header cannot drive a huge
// allocation: the elements it promises must actually be present.
func checkDims(rows, cols uint32, elemSize, avail int) (int, int, error) {
	r, c := int(rows), int(cols)
	if r > math.MaxInt32 || c > math.MaxInt32 {
		return 0, 0, codecErr("dimensions %dx%d out of range", rows, cols)
	}
	// r·c ≤ 2^62 here, so the product cannot overflow int64.
	if int64(r)*int64(c) > int64(avail/elemSize) {
		return 0, 0, codecErr("%dx%d payload exceeds the %d bytes present", r, c, avail)
	}
	return r, c, nil
}

// AppendMatrix appends a dense float64 matrix: rows, cols, then the
// elements column-major as raw float64 bits. Strided views encode compactly
// (the stride is not persisted).
func AppendMatrix(buf []byte, m *linalg.Matrix) []byte {
	buf = appendU32(buf, uint32(m.Rows))
	buf = appendU32(buf, uint32(m.Cols))
	for j := 0; j < m.Cols; j++ {
		for _, v := range m.Col(j) {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
		}
	}
	return buf
}

// DecodeMatrix decodes one AppendMatrix payload, returning the remainder.
func DecodeMatrix(b []byte) (*linalg.Matrix, []byte, error) {
	rows, b, err := decodeU32(b)
	if err != nil {
		return nil, nil, err
	}
	cols, b, err := decodeU32(b)
	if err != nil {
		return nil, nil, err
	}
	r, c, err := checkDims(rows, cols, 8, len(b))
	if err != nil {
		return nil, nil, err
	}
	m := linalg.NewMatrix(r, c)
	for i := range m.Data {
		m.Data[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return m, b[8*r*c:], nil
}

// AppendTile appends one tile in its representation: a wire kind tag, then
// the representation payload.
func AppendTile(buf []byte, t Tile) ([]byte, error) {
	switch tt := t.(type) {
	case *DenseF64:
		buf = append(buf, wireDenseF64)
		return AppendMatrix(buf, tt.D), nil
	case *PackedF64:
		// Stored as the DenseF64 it was packed from: the wire format is
		// column-major whatever the in-memory order.
		m := linalg.GetMat(tt.P.N, tt.P.K)
		tt.P.UnpackInto(m)
		buf = append(buf, wireDenseF64)
		buf = AppendMatrix(buf, m)
		linalg.PutMat(m)
		return buf, nil
	case *LowRank:
		buf = append(buf, wireLowRank)
		buf = appendU32(buf, uint32(tt.M))
		buf = appendU32(buf, uint32(tt.N))
		k := tt.Rank()
		buf = appendU32(buf, uint32(k))
		if k > 0 {
			buf = AppendMatrix(buf, tt.U)
			buf = AppendMatrix(buf, tt.V)
		}
		return buf, nil
	default:
		return nil, codecErr("unencodable tile type %T", t)
	}
}

// DecodeTile decodes one AppendTile payload, returning the remainder. The
// returned tile owns freshly allocated storage (never pooled buffers), so
// it is safe to hold for a session cache's lifetime.
func DecodeTile(b []byte) (Tile, []byte, error) {
	if len(b) == 0 {
		return nil, nil, codecErr("truncated tile (no kind tag)")
	}
	kind, b := b[0], b[1:]
	switch kind {
	case wireDenseF64:
		m, rest, err := DecodeMatrix(b)
		if err != nil {
			return nil, nil, err
		}
		return &DenseF64{D: m}, rest, nil
	case wireDenseF32:
		return nil, nil, codecErr("tile kind tag %d (dense float32) is retired", kind)
	case wireLowRank:
		mm, b, err := decodeU32(b)
		if err != nil {
			return nil, nil, err
		}
		nn, b, err := decodeU32(b)
		if err != nil {
			return nil, nil, err
		}
		kk, b, err := decodeU32(b)
		if err != nil {
			return nil, nil, err
		}
		m, n, k := int(mm), int(nn), int(kk)
		if m < 0 || n < 0 || k < 0 || k > m || k > n {
			return nil, nil, codecErr("low-rank shape %dx%d rank %d out of range", m, n, k)
		}
		t := &LowRank{M: m, N: n}
		if k > 0 {
			var u, v *linalg.Matrix
			if u, b, err = DecodeMatrix(b); err != nil {
				return nil, nil, err
			}
			if v, b, err = DecodeMatrix(b); err != nil {
				return nil, nil, err
			}
			if u.Rows != m || u.Cols != k || v.Rows != n || v.Cols != k {
				return nil, nil, codecErr("low-rank factors %dx%d/%dx%d disagree with header %dx%d rank %d",
					u.Rows, u.Cols, v.Rows, v.Cols, m, n, k)
			}
			t.U, t.V = u, v
		}
		return t, b, nil
	default:
		return nil, nil, codecErr("unknown tile kind tag %d", kind)
	}
}
