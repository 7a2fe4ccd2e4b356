package hamming

import (
	"testing"

	"koopmancrc/internal/poly"
)

// These tests pin the evaluator to values stated in the paper's prose,
// Table 1 (where legible) and the 2014 errata. Only computations cheap
// enough for routine test runs appear here; the full Table 1 reproduction
// to 131072 bits lives in internal/paperdata and cmd/crctables.

func TestAnchor8023Breakpoint(t *testing.T) {
	// §4.1 worked example: the 802.3 HD=5 to HD=4 transition falls between
	// 2974 and 2975 bits, and W4(2975) = 1 — "exactly one such undetected
	// error".
	e := New(poly.IEEE8023)
	n, wit, found, err := e.FirstDataLen(4, 4000)
	if err != nil || !found {
		t.Fatalf("FirstDataLen(4): %v %v", found, err)
	}
	if n != 2975 {
		t.Fatalf("802.3 weight-4 boundary = %d, want 2975", n)
	}
	if len(wit) != 4 {
		t.Fatalf("witness %v", wit)
	}
	w4, err := e.Weight(4, 2975)
	if err != nil {
		t.Fatal(err)
	}
	if w4 != 1 {
		t.Fatalf("W4(2975) = %d, want 1", w4)
	}
	w4prev, err := e.Weight(4, 2974)
	if err != nil {
		t.Fatal(err)
	}
	if w4prev != 0 {
		t.Fatalf("W4(2974) = %d, want 0", w4prev)
	}
}

// boundary is one step of the shrinking-limit scan that builds a Table 1
// column: the first length (0 for none) of a weight-w pattern within the
// limit the lower weights' boundaries leave.
type boundary struct{ w, limit, first int }

// checkBoundaries runs each step through FirstDataLen.
func checkBoundaries(t *testing.T, e *Evaluator, steps []boundary) {
	t.Helper()
	for _, s := range steps {
		first, wit, found, err := e.FirstDataLen(s.w, s.limit)
		if err != nil {
			t.Fatalf("FirstDataLen(%d, %d): %v", s.w, s.limit, err)
		}
		if !found {
			first = 0
		}
		if first != s.first {
			t.Errorf("weight-%d boundary within %d = %d, want %d", s.w, s.limit, first, s.first)
		}
		if found && len(wit) != s.w {
			t.Errorf("weight-%d witness %v", s.w, wit)
		}
	}
}

// checkHDThrough checks that HD >= hd holds through exactly maxLen bits:
// the column's band end, and the answer §4.1 inverse filtering gives.
func checkHDThrough(t *testing.T, e *Evaluator, hd, maxLen int) {
	t.Helper()
	for n, want := range map[int]bool{maxLen: true, maxLen + 1: false} {
		ok, err := e.MeetsHD(n, hd)
		if err != nil {
			t.Fatal(err)
		}
		if ok != want {
			t.Errorf("HD>=%d at %d bits = %v, want %v", hd, n, ok, want)
		}
	}
}

func TestAnchor8023Bands(t *testing.T) {
	// Prose: "the 802.3 polynomial has a HD greater than or equal to 8 up
	// to a data word length of 91 bits, HD=7 to 171 bits, HD=6 to 268 bits,
	// HD=5 to 2974 bits".
	e := New(poly.IEEE8023)
	checkBoundaries(t, e, []boundary{
		{2, 4096, 0}, {3, 4096, 0}, {4, 4096, 2975}, {5, 2974, 269}, {6, 268, 172}, {7, 171, 92},
	})
	for hd, maxLen := range map[int]int{8: 91, 7: 171, 6: 268, 5: 2974} {
		checkHDThrough(t, e, hd, maxLen)
	}
}

func TestAnchorISCSIBands(t *testing.T) {
	// Table 1 column 2 (0x8F6E37A0): HD=8 for 48-177, HD=6 for 178-5243,
	// HD=4 from 5244 — "only has HD=6 up to less than half an Ethernet MTU".
	// Odd weights never occur: the polynomial is divisible by (x+1). The
	// chain itself shows HD>=6 through exactly 5243 bits: no weight below
	// 4 within 8192, weight 4 from 5244, no weight 5 within 5243.
	checkBoundaries(t, New(poly.CastagnoliISCSI), []boundary{
		{2, 8192, 0}, {3, 8192, 0}, {4, 8192, 5244}, {5, 5243, 0}, {6, 5243, 178}, {7, 177, 0}, {8, 177, 48},
	})
}

func TestAnchorBA0DC66BShortBands(t *testing.T) {
	// Table 1 column 3 (0xBA0DC66B): HD=8 for 19-152, HD=6 from 153 (the
	// 16360 upper end is exercised in the full Table 1 reproduction).
	checkBoundaries(t, New(poly.Koopman32K), []boundary{
		{2, 1024, 0}, {3, 1024, 0}, {4, 1024, 0}, {5, 1024, 0}, {6, 1024, 153}, {7, 152, 0}, {8, 152, 19},
	})
}

func TestAnchorCastagnoliErratum(t *testing.T) {
	// §3: the misprinted Castagnoli polynomial 1F6ACFB13 "has HD=6 up to a
	// length of only 382 bits and so should not be used". Both of our
	// engines (meet-in-the-middle and paper-faithful brute force)
	// independently find the first weight-5 pattern at 384 bits — HD=6
	// through 383, one bit past the paper's prose (the README's "Deviations
	// from the paper" records it); the paper's point (HD=6 collapses
	// around ~0.4 Kbit instead of ~32 Kbit) reproduces exactly.
	e := New(poly.CastagnoliMisprint)
	checkHDThrough(t, e, 6, 383) // paper prose: 382
	// Cross-check with the paper-faithful engine at the boundary.
	if _, found, err := e.ExistsBrute(5, 383, OrderLex); err != nil || found {
		t.Fatalf("brute Exists(5, 383) = %v, %v; want none", found, err)
	}
	if _, found, err := e.ExistsBrute(5, 384, OrderFCSFirst); err != nil || !found {
		t.Fatalf("brute Exists(5, 384) = %v, %v; want found", found, err)
	}
	// The corrected polynomial keeps HD=6 well past that.
	e2 := New(poly.Castagnoli1131515)
	ok, err := e2.MeetsHD(1024, 6)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("corrected 0xFA567D89 should have HD>=6 at 1024 bits")
	}
}

func TestAnchorCCITT16(t *testing.T) {
	// CRC-16/CCITT: period 32767, so HD >= 4 holds through 32751 data bits
	// ((x+1)-divisibility kills weight 3) and fails at 32752.
	e := New(poly.CCITT16)
	n2, wit, found, err := e.FirstDataLen(2, 40000)
	if err != nil || !found {
		t.Fatalf("FirstDataLen(2): %v %v", found, err)
	}
	if n2 != 32752 {
		t.Fatalf("weight-2 boundary = %d, want 32752", n2)
	}
	if wit[1] != 32767 {
		t.Fatalf("witness %v, want {0, 32767}", wit)
	}
	ok, err := e.MeetsHD(32751, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("CCITT-16 should hold HD>=4 at 32751 bits")
	}
	ok, err = e.MeetsHD(32752, 4)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("CCITT-16 must fail HD>=4 at 32752 bits")
	}
}

func TestAnchorMTUHammingDistances(t *testing.T) {
	if testing.Short() {
		t.Skip("MTU-length evaluation in -short mode")
	}
	// The paper's headline comparison at the Ethernet MTU data-word length
	// of 12112 bits: 802.3 and the iSCSI polynomial achieve HD=4, the new
	// {1,3,28} polynomial achieves HD=6.
	tests := []struct {
		p    poly.P
		want int
	}{
		{poly.IEEE8023, 4},
		{poly.CastagnoliISCSI, 4},
		{poly.Koopman32K, 6},
		{poly.Koopman1130, 6},
		{poly.KoopmanSparse6, 6},
		{poly.Castagnoli1131515, 6},
		{poly.CastagnoliHD5, 5},
		{poly.KoopmanSparse5, 5},
	}
	for _, tt := range tests {
		// HD is exactly want: no lighter pattern fits, a weight-want one does.
		e := New(tt.p)
		ok, err := e.MeetsHD(12112, tt.want)
		if err != nil {
			t.Fatalf("%v: %v", tt.p, err)
		}
		_, found, err := e.Exists(tt.want, 12112)
		if err != nil {
			t.Fatalf("%v: %v", tt.p, err)
		}
		if !ok || !found {
			t.Errorf("HD(%v @ MTU) != %d: HD>=%d %v, weight-%d pattern %v", tt.p, tt.want, tt.want, ok, tt.want, found)
		}
	}
}

func TestAnchorW4AtMTU(t *testing.T) {
	if testing.Short() {
		t.Skip("exact MTU weight in -short mode")
	}
	// §3: the 802.3 CRC at 12112 bits has weights {W2=0, W3=0, W4=223059}.
	e := New(poly.IEEE8023)
	for w, want := range map[int]uint64{2: 0, 3: 0, 4: 223059} {
		got, err := e.Weight(w, 12112)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("W%d at MTU = %d, want %d", w, got, want)
		}
	}
}
