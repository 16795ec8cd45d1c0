package engine

// NewGridOversized returns a grid descriptor whose tile count exceeds
// maxTileRows without allocating its tile table, so tests can exercise the
// factorization-side size guard directly (NewGridChecked refuses to build
// such a grid through the public constructors).
func NewGridOversized() *Grid {
	nt := maxTileRows + 1
	return &Grid{N: nt * 4, TS: 4, NT: nt}
}
