package crchash_test

import (
	"hash/crc32"
	"sync"
	"testing"

	"koopmancrc"
	"koopmancrc/crchash"
)

func TestForAlgorithmCachesEngines(t *testing.T) {
	e1, err := crchash.ForAlgorithm("CRC-32C/iSCSI")
	if err != nil {
		t.Fatal(err)
	}
	e2, err := crchash.ForAlgorithm("CRC-32C/iSCSI")
	if err != nil {
		t.Fatal(err)
	}
	if e1 != e2 {
		t.Error("repeated ForAlgorithm returned distinct engines; cache is not working")
	}
	if _, err := crchash.ForAlgorithm("nope"); err == nil {
		t.Error("unknown algorithm should error")
	}
}

func TestChecksumMatchesStdlib(t *testing.T) {
	data := []byte("The quick brown fox jumps over the lazy dog")
	got, err := crchash.Checksum("CRC-32/IEEE-802.3", data)
	if err != nil {
		t.Fatal(err)
	}
	if want := crc32.ChecksumIEEE(data); got != want {
		t.Errorf("IEEE = %#x, want %#x", got, want)
	}
	got, err = crchash.Checksum("CRC-32C/iSCSI", data)
	if err != nil {
		t.Fatal(err)
	}
	if want := crc32.Checksum(data, crc32.MakeTable(crc32.Castagnoli)); got != want {
		t.Errorf("CRC-32C = %#x, want %#x", got, want)
	}
}

// TestChecksumConcurrent hammers the cached engine from many goroutines:
// the cache and the engines must be safe for concurrent use.
func TestChecksumConcurrent(t *testing.T) {
	data := []byte("concurrent checksum traffic")
	want, err := crchash.Checksum("CRC-32C/iSCSI", data)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				got, err := crchash.Checksum("CRC-32C/iSCSI", data)
				if err != nil || got != want {
					t.Errorf("got %#x, %v; want %#x", got, err, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestNewEngineKinds(t *testing.T) {
	data := []byte("123456789")
	for _, k := range []crchash.Kind{crchash.Auto, crchash.Bitwise, crchash.Table, crchash.Slicing16, crchash.Hardware} {
		e, err := crchash.NewEngine(crchash.CRC32C, k)
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		if got := e.Checksum(data); got != crchash.CRC32C.Check {
			t.Errorf("%v: %#x, want %#x", k, got, crchash.CRC32C.Check)
		}
	}
	// CCITT-FALSE is non-reflected 16-bit: slicing-by-16 must refuse it.
	p, err := crchash.Lookup("CRC-16/CCITT-FALSE")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := crchash.NewEngine(p, crchash.Slicing16); err == nil {
		t.Error("slicing-by-16 should reject a non-reflected 16-bit algorithm")
	}
	if crchash.Slicing16.String() != "slicing16" || crchash.Kind(99).String() == "" {
		t.Error("Kind.String misbehaves")
	}
}

func TestRegisterValidation(t *testing.T) {
	p := koopmancrc.MustPolynomial(32, koopmancrc.Normal, "0x04C11DB7")
	if err := crchash.Register(crchash.Params{Poly: p}); err == nil {
		t.Error("empty name should be rejected")
	}
	if err := crchash.Register(crchash.Params{Name: "CRC-32/NOPOLY"}); err == nil {
		t.Error("zero polynomial should be rejected")
	}
	if err := crchash.Register(crchash.Params{Name: "CRC-32C/iSCSI", Poly: p}); err == nil {
		t.Error("duplicate of a built-in name should be rejected")
	}
	// A wrong check value must be caught before the algorithm is usable.
	if err := crchash.Register(crchash.Params{
		Name: "CRC-32/BADCHECK", Poly: p, Init: 0xFFFFFFFF, Check: 0xDEADBEEF,
	}); err == nil {
		t.Error("mismatched check value should be rejected")
	}
	if _, err := crchash.Checksum("CRC-32/BADCHECK", nil); err == nil {
		t.Error("rejected registration must not be resolvable")
	}

	// A valid registration becomes part of the catalogue.
	if err := crchash.Register(crchash.Params{
		Name: "CRC-16/TEST-REG", Poly: koopmancrc.MustPolynomial(16, koopmancrc.Normal, "0x1021"),
	}); err != nil {
		t.Fatal(err)
	}
	if err := crchash.Register(crchash.Params{
		Name: "CRC-16/TEST-REG", Poly: koopmancrc.MustPolynomial(16, koopmancrc.Normal, "0x1021"),
	}); err == nil {
		t.Error("duplicate registration should be rejected")
	}
	found := false
	for _, name := range crchash.Algorithms() {
		if name == "CRC-16/TEST-REG" {
			found = true
		}
	}
	if !found {
		t.Error("registered algorithm missing from Algorithms()")
	}
	if _, err := crchash.ForAlgorithm("CRC-16/TEST-REG"); err != nil {
		t.Errorf("registered algorithm not resolvable: %v", err)
	}
}

func TestDigestSumAppendsBigEndian(t *testing.T) {
	d := crchash.NewDigest(crchash.New(crchash.CRC32C))
	d.Write([]byte("123456789"))
	sum := d.Sum(nil)
	want := []byte{0xE3, 0x06, 0x92, 0x83}
	if len(sum) != 4 || sum[0] != want[0] || sum[1] != want[1] || sum[2] != want[2] || sum[3] != want[3] {
		t.Errorf("Sum = %x, want %x", sum, want)
	}
	d.Reset()
	d.Write([]byte("123456789"))
	if d.Sum32() != crchash.CRC32C.Check {
		t.Error("Reset broke the digest")
	}
}
