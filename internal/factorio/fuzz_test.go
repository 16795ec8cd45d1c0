package factorio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

// refreshCRCs walks data as a container as far as its section lengths hold
// and rewrites each section's checksum to match its payload, so a mutation
// inside a payload reaches the structural validation behind the CRC instead
// of stopping at it. Input that does not parse that far is returned as far
// as it was fixed.
func refreshCRCs(data []byte) []byte {
	out := bytes.Clone(data)
	for off := 24; off+12 <= len(out); {
		length := binary.LittleEndian.Uint64(out[off+4:])
		if length > uint64(len(out)-off-12) || uint64(len(out)-off-12)-length < 4 {
			break
		}
		end := off + 12 + int(length)
		fixCRC(out[end:], out[off+12:end])
		off = end + 4
	}
	return out
}

// FuzzDecode: Decode never panics; every failure is exactly one of the four
// typed errors; whatever decodes re-encodes to the input byte for byte
// (only canonical containers are accepted), which also means no container
// with a reserved kind byte (1, 2) ever decodes — Encode writes kind 3 — and
// no tile with the retired tag 2 (dense float32) does either.
func FuzzDecode(f *testing.F) {
	for _, fac := range testFactors(f) {
		enc := encode(f, []byte("key"), fac)
		f.Add(enc)
		f.Add(enc[:len(enc)/2])
		f.Add(enc[:len(enc)-1])
		for _, i := range []int{0, 9, 13, 21, 30, len(enc) / 2, len(enc) - 2} {
			flip := bytes.Clone(enc)
			flip[i] ^= 0x21
			f.Add(flip)
		}
		// The reserved kinds behind a valid checksum (the key blob shifts
		// the meta payload by its 3 bytes).
		for _, kind := range []byte{1, 2} {
			res := bytes.Clone(enc)
			res[metaOff+3] = kind
			f.Add(refreshCRCs(res))
		}
		// Tile (1,0) tagged dense float32: it follows the 4×4 dense
		// diagonal tile (0,0), after the tiles section's header.
		retired := bytes.Clone(enc)
		retired[metaOff+3+metaLen+4+12+1+8+8*16] = 2
		f.Add(refreshCRCs(retired))
	}
	typed := []error{ErrFormat, ErrChecksum, ErrVersion, ErrFeature}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, in := range [][]byte{data, refreshCRCs(data)} {
			key, fac, err := Decode(in)
			if err != nil {
				n := 0
				for _, e := range typed {
					if errors.Is(err, e) {
						n++
					}
				}
				if n != 1 {
					t.Fatalf("error %q matches %d of the typed errors, want exactly 1", err, n)
				}
				continue
			}
			var buf bytes.Buffer
			if err := Encode(&buf, key, fac); err != nil {
				t.Fatalf("decoded factor does not encode: %v", err)
			}
			if !bytes.Equal(buf.Bytes(), in) {
				t.Fatalf("decoded %d bytes, re-encoded to %d different ones", len(in), buf.Len())
			}
		}
	})
}
