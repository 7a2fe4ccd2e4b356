//go:build !amd64

package main

// cpuFeatures has no portable source off amd64; the host block then
// names the architecture only.
func cpuFeatures() (brand string, pclmul, avx512 bool) { return "", false, false }
