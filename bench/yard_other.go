//go:build !amd64

package main

// fmaChains exists only on amd64; linalg.HasVectorKernels() is false
// elsewhere, so it is never called.
func fmaChains(n int, x *[4]float64) {}
