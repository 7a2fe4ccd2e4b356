package gf2

import (
	"math/rand/v2"
	"reflect"
	"testing"
)

// fullPoly converts the paper's Koopman representation (implicit +1 term,
// bit i = coefficient of x^(i+1)) into the explicit polynomial.
func fullPoly(koopman uint64) Poly { return Poly(koopman<<1 | 1) }

func TestIsIrreducibleSmall(t *testing.T) {
	// All irreducible polynomials of degree <= 4 over GF(2).
	irreducible := map[Poly]bool{
		0x2: true, 0x3: true, // x, x+1
		0x7: true,            // x^2+x+1
		0xB: true, 0xD: true, // degree 3
		0x13: true, 0x19: true, 0x1F: true, // degree 4
	}
	for p := Poly(2); p < 0x20; p++ {
		if got := IsIrreducible(p); got != irreducible[p] {
			t.Errorf("IsIrreducible(%#x) = %v, want %v", uint64(p), got, irreducible[p])
		}
	}
}

func TestIsIrreducibleCounts(t *testing.T) {
	// The number of monic irreducible polynomials of degree n over GF(2) is
	// given by the necklace counting formula: 2,1,2,3,6,9,18,30 for n=1..8.
	want := map[int]int{1: 2, 2: 1, 3: 2, 4: 3, 5: 6, 6: 9, 7: 18, 8: 30}
	counts := make(map[int]int)
	for p := Poly(2); p < 1<<9; p++ {
		if IsIrreducible(p) {
			counts[p.Deg()]++
		}
	}
	for n, w := range want {
		if counts[n] != w {
			t.Errorf("degree %d: counted %d irreducibles, want %d", n, counts[n], w)
		}
	}
}

func TestFactorizePaperPolynomials(t *testing.T) {
	// The paper gives explicit factorizations in Koopman notation, e.g.
	// 0xBA0DC66B = (0x1)(0x6)(0x82CA9A0). Each factor is itself in Koopman
	// form with an implicit +1 term.
	tests := []struct {
		name    string
		koopman uint64
		factors []Factor // expected, sorted by (deg, value)
	}{
		{
			name:    "0xBA0DC66B {1,3,28}",
			koopman: 0xBA0DC66B,
			factors: []Factor{
				{P: fullPoly(0x1), Mult: 1},
				{P: fullPoly(0x6), Mult: 1},
				{P: fullPoly(0x82CA9A0), Mult: 1},
			},
		},
		{
			name:    "0xFA567D89 {1,1,15,15}",
			koopman: 0xFA567D89,
			factors: []Factor{
				{P: fullPoly(0x1), Mult: 2},
				{P: fullPoly(0x4008), Mult: 1},
				{P: fullPoly(0x642F), Mult: 1},
			},
		},
		{
			name:    "0x992C1A4C {1,1,30}",
			koopman: 0x992C1A4C,
			factors: []Factor{
				{P: fullPoly(0x1), Mult: 2},
				{P: fullPoly(0x2D095216), Mult: 1},
			},
		},
		{
			name:    "0x90022004 {1,1,30}",
			koopman: 0x90022004,
			factors: []Factor{
				{P: fullPoly(0x1), Mult: 2},
				{P: fullPoly(0x2FFF5FFE), Mult: 1},
			},
		},
		{
			name:    "0x8F6E37A0 {1,31} (iSCSI / CRC-32C)",
			koopman: 0x8F6E37A0,
			factors: []Factor{
				{P: fullPoly(0x1), Mult: 1},
				{P: fullPoly(0x7ADA129F), Mult: 1},
			},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := Factorize(fullPoly(tt.koopman))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, tt.factors) {
				t.Errorf("Factorize = %+v, want %+v", got, tt.factors)
			}
		})
	}
}

func TestFactorizeIrreduciblePaperPolynomials(t *testing.T) {
	// {32} class: irreducible but not primitive.
	for _, k := range []uint64{0xD419CC15, 0x80108400} {
		f := fullPoly(k)
		if !IsIrreducible(f) {
			t.Errorf("%#x: expected irreducible", k)
		}
		if IsPrimitive(f) {
			t.Errorf("%#x: expected non-primitive (paper: irreducible, not primitive)", k)
		}
	}
	// The 802.3 generator is irreducible. The paper's parenthetical calls it
	// "irreducible, but not primitive"; our order computation — validated
	// against direct simulation and the seven Table-1-implied periods — finds
	// ord(x) = 2^32-1, i.e. primitive. The README's "Deviations from the
	// paper" records the deviation.
	if !IsIrreducible(fullPoly(0x82608EDB)) {
		t.Error("0x82608EDB: expected irreducible")
	}
	if !IsPrimitive(fullPoly(0x82608EDB)) {
		t.Error("0x82608EDB: computed order should be 2^32-1 (primitive); see TestOrderOfX8023")
	}
	// The degree-31 factor of the iSCSI polynomial is primitive (the paper's
	// {1,31} class restricted the large factor to primitive polynomials).
	if !IsPrimitive(fullPoly(0x7ADA129F)) {
		t.Error("degree-31 factor of 0x8F6E37A0 should be primitive")
	}
}

func TestFactorizeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 9))
	for i := 0; i < 300; i++ {
		p := Poly(rng.Uint64N(1<<20)) | 1<<19 | 1 // degree 19, constant term 1
		factors, err := Factorize(p)
		if err != nil {
			t.Fatal(err)
		}
		if got := Product(factors); got != p {
			t.Fatalf("Product(Factorize(%#x)) = %#x", uint64(p), uint64(got))
		}
		for _, f := range factors {
			if !IsIrreducible(f.P) {
				t.Fatalf("factor %#x of %#x is not irreducible", uint64(f.P), uint64(p))
			}
		}
	}
}

func TestFactorizeWithMultiplicities(t *testing.T) {
	// (x+1)^3 (x^2+x+1)^2 (x^3+x+1)
	p := Product([]Factor{{P: XPlus1, Mult: 3}, {P: 0x7, Mult: 2}, {P: 0xB, Mult: 1}})
	got, err := Factorize(p)
	if err != nil {
		t.Fatal(err)
	}
	want := []Factor{{P: XPlus1, Mult: 3}, {P: 0x7, Mult: 2}, {P: 0xB, Mult: 1}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Factorize = %+v, want %+v", got, want)
	}
}

func TestFactorizePowersOfX(t *testing.T) {
	got, err := Factorize(0x8) // x^3
	if err != nil {
		t.Fatal(err)
	}
	want := []Factor{{P: X, Mult: 3}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Factorize(x^3) = %+v, want %+v", got, want)
	}
}

func TestFactorizeConstantError(t *testing.T) {
	if _, err := Factorize(1); err == nil {
		t.Error("Factorize(1) should error")
	}
	if _, err := Factorize(0); err == nil {
		t.Error("Factorize(0) should error")
	}
}

func TestShape(t *testing.T) {
	factors, err := Factorize(fullPoly(0xBA0DC66B))
	if err != nil {
		t.Fatal(err)
	}
	if got := Shape(factors); !reflect.DeepEqual(got, []int{1, 3, 28}) {
		t.Errorf("Shape = %v, want [1 3 28]", got)
	}
	factors, err = Factorize(fullPoly(0xFA567D89))
	if err != nil {
		t.Fatal(err)
	}
	if got := Shape(factors); !reflect.DeepEqual(got, []int{1, 1, 15, 15}) {
		t.Errorf("Shape = %v, want [1 1 15 15]", got)
	}
}

func TestFactorizeRandomSquares(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	for i := 0; i < 100; i++ {
		g := Poly(rng.Uint64N(1<<12)) | 1<<11 | 1
		p := Mul(g, g)
		factors, err := Factorize(p)
		if err != nil {
			t.Fatal(err)
		}
		if got := Product(factors); got != p {
			t.Fatalf("square round-trip failed for %#x", uint64(p))
		}
		for _, f := range factors {
			if f.Mult%2 != 0 {
				t.Fatalf("square %#x has odd-multiplicity factor %+v", uint64(p), f)
			}
		}
	}
}
