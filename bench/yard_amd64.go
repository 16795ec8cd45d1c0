package main

// fmaChains runs n steps of ten independent 4-wide x ← x·m + c chains
// starting from *x and stores their sum back (yard_amd64.s). It needs AVX2
// and FMA: call it only when linalg.HasVectorKernels() says so.
//
//go:noescape
func fmaChains(n int, x *[4]float64)
