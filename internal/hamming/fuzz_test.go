package hamming

import (
	"testing"

	"koopmancrc/internal/poly"
)

// FuzzBoundaryScan checks the one-pass boundary scan against the
// brute-force engine on random generators of width 8–12, weights 5–7
// and lengths up to 48 bits. Existence grows with length, so the scan's
// answer is right when the brute engine finds a pattern at the reported
// boundary and none one bit shorter, or none at maxLen when the scan
// found nothing.
func FuzzBoundaryScan(f *testing.F) {
	f.Add(uint16(0x83), uint8(0), uint8(0), uint8(23))
	f.Add(uint16(0x9c), uint8(0), uint8(2), uint8(47))
	f.Add(uint16(0x5d7), uint8(3), uint8(1), uint8(40))
	f.Add(uint16(0xc07), uint8(4), uint8(2), uint8(47))
	f.Add(uint16(0x1), uint8(2), uint8(0), uint8(7))
	f.Add(uint16(0x3e), uint8(4), uint8(0), uint8(35))  // boundary on a round's first c
	f.Add(uint16(0xbfd), uint8(3), uint8(0), uint8(45)) // boundary after a table refill
	f.Fuzz(func(t *testing.T, k uint16, widthSel, wSel, lenSel uint8) {
		width := 8 + int(widthSel%5)
		w := 5 + int(wSel%3)
		maxLen := 1 + int(lenSel%48)
		koop := uint64(k)&(1<<width-1) | 1<<(width-1)
		p, err := poly.FromKoopman(width, koop)
		if err != nil {
			t.Fatalf("FromKoopman(%d, %#x): %v", width, koop, err)
		}
		e := New(p)
		n, wit, found, err := e.FirstDataLen(w, maxLen)
		if err != nil {
			t.Fatalf("%v w=%d maxLen=%d: %v", p, w, maxLen, err)
		}
		// At these widths the store becomes the bitmap after a few keys;
		// a store bound past the scan's size keeps it a growing table.
		n2, _, found2, err := New(p, WithMaxStoreEntries(1<<20)).FirstDataLen(w, maxLen)
		if err != nil || n2 != n || found2 != found {
			t.Fatalf("%v w=%d maxLen=%d: table store (%d, %v, %v), bitmap store (%d, %v)", p, w, maxLen, n2, found2, err, n, found)
		}
		exists := func(dataLen int) bool {
			_, ok, err := e.ExistsBrute(w, dataLen, OrderLex)
			if err != nil {
				t.Fatalf("brute %v w=%d at %d: %v", p, w, dataLen, err)
			}
			return ok
		}
		if !found {
			if exists(maxLen) {
				t.Fatalf("%v w=%d: scan found no boundary up to %d, brute engine finds one", p, w, maxLen)
			}
			return
		}
		if n < 1 || n > maxLen {
			t.Fatalf("%v w=%d: boundary %d outside [1, %d]", p, w, n, maxLen)
		}
		if err := e.VerifyWitness(w, e.codewordLen(n), wit); err != nil {
			t.Fatalf("%v w=%d boundary %d: %v", p, w, n, err)
		}
		if !exists(n) || (n > 1 && exists(n-1)) {
			t.Fatalf("%v w=%d: scan boundary %d disagrees with the brute engine", p, w, n)
		}
	})
}
