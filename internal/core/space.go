// Package core implements the paper's central contribution: enumeration and
// filtering of the complete CRC polynomial design space. It provides the
// candidate space with reciprocal-pair deduplication (§3), the multi-stage
// filtering pipeline with the §4.1 optimisations, and the
// factorization-class census behind Table 2. Inverse filtering — the
// largest length at which one polynomial keeps an HD — is
// koopmancrc.Analyzer.MaxLenAtHD.
package core

import (
	"fmt"

	"koopmancrc/internal/poly"
)

// Space is the design space of width-bit CRC generator polynomials.
//
// Every generator has its top coefficient set, leaving 2^(width-1) distinct
// polynomials (the +1 term is implicit in Koopman representation).
// Reciprocal pairs have identical error-detection performance, so only the
// canonical member of each pair — the one with the numerically smaller
// Koopman value — is evaluated; palindromes (self-reciprocal polynomials)
// are their own canonical member, which is why the paper counts
// 1,073,774,592 = 2^30 + 2^15 candidates rather than exactly 2^30.
type Space struct {
	Width int
}

// NewSpace validates the width and returns the design space.
func NewSpace(width int) (Space, error) {
	if width < 2 || width > 32 {
		return Space{}, fmt.Errorf("core: unsupported width %d", width)
	}
	return Space{Width: width}, nil
}

// TotalPolynomials is the number of distinct generators (before reciprocal
// deduplication): 2^(width-1).
func (s Space) TotalPolynomials() uint64 { return 1 << uint(s.Width-1) }

// Palindromes is the number of self-reciprocal generators.
func (s Space) Palindromes() uint64 {
	// The full (width+1)-bit polynomial has fixed endpoint coefficients;
	// a palindrome is determined by the free half of the remaining bits:
	// (width-1)/2 mirrored pairs plus, for even widths, a middle bit.
	free := (s.Width - 1) / 2
	if s.Width%2 == 0 {
		free++
	}
	return 1 << uint(free)
}

// CanonicalCount is the number of candidates after reciprocal
// deduplication: one per reciprocal pair plus all palindromes.
func (s Space) CanonicalCount() uint64 {
	return (s.TotalPolynomials()-s.Palindromes())/2 + s.Palindromes()
}

// kRange returns the raw Koopman value range [lo, hi) of the space: all
// width-bit values with the top bit set.
func (s Space) kRange() (uint64, uint64) {
	return 1 << uint(s.Width-1), 1 << uint(s.Width)
}

// Contains reports whether k is a raw member of the space.
func (s Space) Contains(k uint64) bool {
	lo, hi := s.kRange()
	return k >= lo && k < hi
}

// Canonical reports whether the polynomial with Koopman value k is the
// canonical member of its reciprocal pair.
func (s Space) Canonical(k uint64) (bool, error) {
	p, err := poly.FromKoopman(s.Width, k)
	if err != nil {
		return false, err
	}
	return k <= p.Reciprocal().Koopman(), nil
}

// Enumerate calls fn for every canonical polynomial whose raw index falls
// in [startIdx, endIdx), where raw index i denotes Koopman value
// 2^(width-1)+i and endIdx is capped at 2^(width-1). Enumeration stops
// early if fn returns false. It returns the number of canonical candidates
// visited.
//
// Indexing by raw value keeps work division trivial for the distributed
// search: any partition of [0, 2^(width-1)) covers the whole space exactly
// once.
func (s Space) Enumerate(startIdx, endIdx uint64, fn func(p poly.P) bool) (uint64, error) {
	lo, _ := s.kRange()
	if endIdx > s.TotalPolynomials() {
		endIdx = s.TotalPolynomials()
	}
	var visited uint64
	for i := startIdx; i < endIdx; i++ {
		k := lo + i
		p, err := poly.FromKoopman(s.Width, k)
		if err != nil {
			return visited, fmt.Errorf("enumerate %#x: %w", k, err)
		}
		if k > p.Reciprocal().Koopman() {
			continue // non-canonical member of a reciprocal pair
		}
		visited++
		if !fn(p) {
			break
		}
	}
	return visited, nil
}
