// Package factorio is the persistent serialization format for Cholesky
// factors: a versioned, feature-gated container of checksummed sections
// holding a factor's tile grid (each tile in whatever representation the
// layout chose) plus an opaque caller key blob identifying the problem the
// factor solves.
//
// Layout (all integers little endian):
//
//	magic   [8]byte  "PMVNFAC1"
//	version u32      container version (currently 1)
//	features u64     feature bitmask; decoders reject unknown bits
//	nsect   u32      section count
//	nsect × sections:
//	    id      u32
//	    length  u64   payload bytes
//	    payload [length]byte
//	    crc     u32   CRC-32C (Castagnoli) of the payload
//
// Every section carries its own checksum, so a flipped byte anywhere in a
// payload is a typed ErrChecksum, not a garbage factor; truncation anywhere
// is a typed ErrFormat; a future container version or an unknown feature
// bit is refused up front (ErrVersion/ErrFeature) instead of misparsed.
// Decode never panics on any input and never allocates more than the input
// length can justify: it parses a byte slice in place.
//
// The format stores the factor exactly: float payloads are raw IEEE-754
// bit patterns, so a decoded factor answers queries bit-identically to the
// factor that was encoded.
package factorio

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"repro/internal/engine"
	"repro/internal/mvn"
	"repro/internal/tile"
)

// Magic identifies a factor container file.
var Magic = [8]byte{'P', 'M', 'V', 'N', 'F', 'A', 'C', '1'}

// Version is the current container version. Decoders accept only versions
// they know; bumping it is the escape hatch for incompatible layout
// changes, while compatible additions use feature bits.
const Version = 1

// Typed decode failures, distinguishable with errors.Is.
var (
	// ErrFormat: structurally malformed input — bad magic, truncation,
	// impossible lengths, malformed tile payloads.
	ErrFormat = errors.New("factorio: malformed factor file")
	// ErrChecksum: a section's CRC does not match its payload.
	ErrChecksum = errors.New("factorio: section checksum mismatch")
	// ErrVersion: the container version is newer than this decoder.
	ErrVersion = errors.New("factorio: unsupported container version")
	// ErrFeature: the container uses feature bits this decoder lacks.
	ErrFeature = errors.New("factorio: unsupported feature flags")
)

func formatErr(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrFormat, fmt.Sprintf(format, args...))
}

// Section ids. Persistent format values — append only.
const (
	sectionKey   = uint32(1) // opaque caller key blob
	sectionMeta  = uint32(2) // factor kind + structural header
	sectionTiles = uint32(3) // tile payloads, lower triangle row by row
)

// kindGrid is the factor kind tag inside sectionMeta: a tile grid, every
// tile self-describing its representation. Persistent format value. Tags 1
// and 2 named two per-layout encodings (whole-matrix dense, diagonal-then-
// low-rank TLR) that no store ever wrote — every persisted factor is kernel
// built, hence a grid; they stay reserved and decode as ErrFormat.
const kindGrid = byte(3)

// castagnoli is the CRC-32C table (hardware-accelerated on amd64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Encode writes f and its identifying keyBlob as one container to w (no
// partial output discipline is the caller's job — the store writes to a temp
// file and renames).
func Encode(w io.Writer, keyBlob []byte, f *mvn.Factor) error {
	meta, tiles, err := encodeFactor(f)
	if err != nil {
		return err
	}
	var hdr []byte
	hdr = append(hdr, Magic[:]...)
	hdr = binary.LittleEndian.AppendUint32(hdr, Version)
	hdr = binary.LittleEndian.AppendUint64(hdr, 0) // no feature bits yet
	hdr = binary.LittleEndian.AppendUint32(hdr, 3) // section count
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	for _, s := range []struct {
		id      uint32
		payload []byte
	}{{sectionKey, keyBlob}, {sectionMeta, meta}, {sectionTiles, tiles}} {
		var sh []byte
		sh = binary.LittleEndian.AppendUint32(sh, s.id)
		sh = binary.LittleEndian.AppendUint64(sh, uint64(len(s.payload)))
		if _, err := w.Write(sh); err != nil {
			return err
		}
		if _, err := w.Write(s.payload); err != nil {
			return err
		}
		var crc []byte
		crc = binary.LittleEndian.AppendUint32(crc, crc32.Checksum(s.payload, castagnoli))
		if _, err := w.Write(crc); err != nil {
			return err
		}
	}
	return nil
}

// Decode parses one container and reconstructs the factor and its key blob
// (which aliases data). All failures are typed: ErrVersion/ErrFeature for
// gated-out files, ErrChecksum for corrupted payloads, ErrFormat for
// everything structural. Only the canonical form Encode writes is accepted —
// the three sections in order, nothing after them — so a decoded factor
// re-encodes to the bytes it was read from. Sections are sliced out of data,
// never copied, so no length field can size an allocation.
func Decode(data []byte) (keyBlob []byte, f *mvn.Factor, err error) {
	const hdrLen = 8 + 4 + 8 + 4
	if len(data) < hdrLen {
		return nil, nil, formatErr("truncated header (%d bytes)", len(data))
	}
	if [8]byte(data[:8]) != Magic {
		return nil, nil, formatErr("bad magic %q", data[:8])
	}
	if v := binary.LittleEndian.Uint32(data[8:]); v != Version {
		return nil, nil, fmt.Errorf("%w: file version %d, decoder version %d", ErrVersion, v, Version)
	}
	if feats := binary.LittleEndian.Uint64(data[12:]); feats != 0 {
		return nil, nil, fmt.Errorf("%w: unknown feature bits %#x", ErrFeature, feats)
	}
	// Compatible additions are signaled by feature bits (checked above),
	// incompatible ones by a version bump, so at this version the section
	// list is exactly key, meta, tiles.
	if nsect := binary.LittleEndian.Uint32(data[20:]); nsect != 3 {
		return nil, nil, formatErr("section count %d, want 3", nsect)
	}
	rest := data[hdrLen:]
	var sections [3][]byte
	for i, want := range []uint32{sectionKey, sectionMeta, sectionTiles} {
		if len(rest) < 12 {
			return nil, nil, formatErr("truncated section %d header", want)
		}
		id, length := binary.LittleEndian.Uint32(rest), binary.LittleEndian.Uint64(rest[4:])
		if id != want {
			return nil, nil, formatErr("section %d has id %d, want %d", i, id, want)
		}
		rest = rest[12:]
		if length > uint64(len(rest)) || uint64(len(rest))-length < 4 {
			return nil, nil, formatErr("section %d claims %d bytes, %d remain", id, length, len(rest))
		}
		payload, crc := rest[:length], binary.LittleEndian.Uint32(rest[length:])
		if got := crc32.Checksum(payload, castagnoli); got != crc {
			return nil, nil, fmt.Errorf("%w: section %d crc %#x, want %#x", ErrChecksum, id, got, crc)
		}
		sections[i], rest = payload, rest[length+4:]
	}
	if len(rest) != 0 {
		return nil, nil, formatErr("%d trailing bytes after the last section", len(rest))
	}
	f, err = decodeFactor(sections[1], sections[2])
	if err != nil {
		return nil, nil, err
	}
	return sections[0], f, nil
}

// metaLen is the fixed size of sectionMeta: kind u8, n u32, ts u32, then 12
// bytes the reserved per-layout kinds used for truncation parameters, zero
// for a grid.
const metaLen = 1 + 4 + 4 + 8 + 4

// encodeFactor flattens the factor's grid into its meta header and tile
// payload.
func encodeFactor(f *mvn.Factor) (meta, tiles []byte, err error) {
	g := f.G
	meta = make([]byte, metaLen)
	meta[0] = kindGrid
	binary.LittleEndian.PutUint32(meta[1:], uint32(g.N))
	binary.LittleEndian.PutUint32(meta[5:], uint32(g.TS))
	for i := 0; i < g.NT; i++ {
		for j := 0; j <= i; j++ {
			t := g.At(i, j)
			if t == nil {
				return nil, nil, fmt.Errorf("factorio: grid tile (%d,%d) unassigned", i, j)
			}
			if tiles, err = tile.AppendTile(tiles, t); err != nil {
				return nil, nil, err
			}
		}
	}
	return meta, tiles, nil
}

// decodeFactor reconstructs the factor from its meta header and tile
// payload, validating every structural fact the payload claims against the
// header before installing a tile.
func decodeFactor(meta, tiles []byte) (*mvn.Factor, error) {
	if len(meta) != metaLen {
		return nil, formatErr("meta section is %d bytes, want %d", len(meta), metaLen)
	}
	if kind := meta[0]; kind != kindGrid {
		return nil, formatErr("unknown factor kind %d", kind)
	}
	if [metaLen - 9]byte(meta[9:]) != [metaLen - 9]byte{} {
		return nil, formatErr("reserved meta bytes are set")
	}
	n := int(binary.LittleEndian.Uint32(meta[1:]))
	ts := int(binary.LittleEndian.Uint32(meta[5:]))
	if n <= 0 || ts <= 0 || ts > n {
		return nil, formatErr("impossible factor shape n=%d ts=%d", n, ts)
	}
	// Every tile takes at least its kind tag and two dimensions, so the tile
	// table is sized only once the payload is long enough to fill it.
	const minTileBytes = 1 + 4 + 4
	if nt := (n + ts - 1) / ts; nt > len(tiles) || nt*(nt+1)/2 > len(tiles)/minTileBytes {
		return nil, formatErr("n=%d ts=%d needs more tiles than %d payload bytes hold", n, ts, len(tiles))
	}
	g, err := engine.NewGridChecked(n, ts)
	if err != nil {
		return nil, formatErr("%v", err)
	}
	for i := 0; i < g.NT; i++ {
		for j := 0; j <= i; j++ {
			t, rest, err := tile.DecodeTile(tiles)
			if err != nil {
				return nil, formatErr("grid tile (%d,%d): %v", i, j, err)
			}
			r, c := t.Dims()
			if r != g.TileRows(i) || c != g.TileRows(j) {
				return nil, formatErr("grid tile (%d,%d) is %dx%d, want %dx%d", i, j, r, c, g.TileRows(i), g.TileRows(j))
			}
			if i == j {
				if _, ok := t.(*tile.DenseF64); !ok {
					return nil, formatErr("grid diagonal tile %d decoded as %s, want dense64", i, t.Kind())
				}
			}
			g.Set(i, j, t)
			tiles = rest
		}
	}
	if len(tiles) != 0 {
		return nil, formatErr("%d trailing bytes after grid tiles", len(tiles))
	}
	return mvn.NewFactor(g), nil
}
