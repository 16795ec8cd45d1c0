package tile

import "repro/internal/linalg"

// SwapSVD replaces the SVD svdPooled runs for the tests of package tile_test,
// which reach it through the engine as well; restore puts the production
// Golub–Reinsch back.
func SwapSVD(svd func(a, v *linalg.Matrix, s []float64) bool) (restore func()) {
	golubReinsch = svd
	return func() { golubReinsch = linalg.GolubReinschSVD }
}
