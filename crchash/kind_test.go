package crchash

import (
	"sync"
	"testing"

	"koopmancrc/internal/crc"
	"koopmancrc/internal/poly"
)

func TestKindStringParseRoundTrip(t *testing.T) {
	for _, k := range append(Kinds(), Auto) {
		got, err := ParseKind(k.String())
		if err != nil || got != k {
			t.Errorf("ParseKind(%q) = %v, %v; want %v", k.String(), got, err, k)
		}
	}
	if got, err := ParseKind("  Slicing16 "); err != nil || got != Slicing16 {
		t.Errorf("ParseKind should trim and fold case: got %v, %v", got, err)
	}
	if _, err := ParseKind("simd512"); err == nil {
		t.Error("ParseKind should reject unknown names")
	}
	if Kind(99).String() != "Kind(99)" {
		t.Errorf("out-of-range String() = %q", Kind(99).String())
	}
}

func TestKindsEnumeratesEveryConcreteKind(t *testing.T) {
	ks := Kinds()
	seen := map[Kind]bool{}
	for _, k := range ks {
		if k == Auto {
			t.Error("Kinds() must not include Auto")
		}
		if seen[k] {
			t.Errorf("Kinds() lists %v twice", k)
		}
		seen[k] = true
		// Every listed kind must be constructible for at least the
		// reflected 32-bit class.
		if !k.Admits(CRC32C) {
			t.Errorf("%v does not admit CRC-32C", k)
		}
	}
	if len(ks) != 4 {
		t.Errorf("Kinds() has %d entries, want 4", len(ks))
	}
}

func TestAdmitsMatchesConstructors(t *testing.T) {
	ccitt, err := Lookup("CRC-16/CCITT-FALSE")
	if err != nil {
		t.Fatal(err)
	}
	arc, err := Lookup("CRC-16/ARC")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []Params{CRC32IEEE, CRC32C, CRC32K, ccitt, arc} {
		for _, k := range Kinds() {
			_, err := NewEngine(p, k)
			if admits := k.Admits(p); admits != (err == nil) {
				t.Errorf("%s/%v: Admits=%v but constructor err=%v", p.Name, k, admits, err)
			}
		}
	}
}

func TestKindOfRoundTrip(t *testing.T) {
	for _, k := range Kinds() {
		e, err := NewEngine(CRC32C, k)
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		if got := KindOf(e); got != k {
			t.Errorf("KindOf(NewEngine(%v)) = %v", k, got)
		}
	}
	// Auto resolves to some concrete kind, never back to Auto.
	if got := KindOf(New(CRC32C)); got == Auto {
		t.Error("KindOf(New(...)) should name the concrete kernel")
	}
}

// TestStaticKernelRule pins the one kernel-selection rule: hardware for
// the IEEE and Castagnoli generators, then slicing-by-16, then
// byte-table, then bitwise. New, NewEngine(Auto) and the cached
// ForAlgorithm engine must all follow it.
func TestStaticKernelRule(t *testing.T) {
	catalogued := []struct {
		name string
		want Kind
	}{
		{"CRC-32/IEEE-802.3", Hardware},
		{"CRC-32C/iSCSI", Hardware},
		{"CRC-32K/Koopman", Slicing16},
		{"CRC-16/ARC", Table},
		{"CRC-16/CCITT-FALSE", Table},
		{"CRC-16/XMODEM", Table},
		{"CRC-8/DARC", Table},
		{"CRC-8/SMBUS", Table},
	}
	for _, tc := range catalogued {
		p, err := Lookup(tc.name)
		if err != nil {
			t.Fatal(err)
		}
		if got := KindOf(New(p)); got != tc.want {
			t.Errorf("%s: KindOf(New) = %v, want %v", tc.name, got, tc.want)
		}
		e, err := ForAlgorithm(tc.name)
		if err != nil {
			t.Fatal(err)
		}
		if got := KindOf(e); got != tc.want {
			t.Errorf("%s: KindOf(ForAlgorithm) = %v, want %v", tc.name, got, tc.want)
		}
	}
	builtin := 0
	for _, name := range Algorithms() {
		for _, tc := range catalogued {
			if tc.name == name {
				builtin++
			}
		}
	}
	if builtin != len(catalogued) {
		t.Errorf("catalogue lists %d of the %d built-in algorithms", builtin, len(catalogued))
	}

	uncatalogued := []struct {
		name string
		p    Params
		want Kind
	}{
		// A reflected 32-bit generator hash/crc32 does not accelerate.
		{"reflected-32", reflectedParams(poly.MustKoopman(32, 0xDEADBEEF)), Slicing16},
		{"pure-32", Pure(poly.Koopman32K), Table},
		{"reflected-16", reflectedParams(poly.MustKoopman(16, 0xC002)), Table},
		{"pure-16", Pure(poly.MustKoopman(16, 0x8810)), Table},
		{"pure-5", Pure(poly.MustKoopman(5, 0x15)), Bitwise},
		{"reflected-12", reflectedParams(poly.MustKoopman(12, 0xC07)), Bitwise},
	}
	for _, tc := range uncatalogued {
		if got := KindOf(New(tc.p)); got != tc.want {
			t.Errorf("%s: KindOf(New) = %v, want %v", tc.name, got, tc.want)
		}
		e, err := NewEngine(tc.p, Auto)
		if err != nil {
			t.Fatal(err)
		}
		if got := KindOf(e); got != tc.want {
			t.Errorf("%s: KindOf(NewEngine(Auto)) = %v, want %v", tc.name, got, tc.want)
		}
	}

	// Hardware admits only the generators it accelerates.
	if _, err := NewEngine(CRC32K, Hardware); err == nil {
		t.Error("NewEngine(CRC32K, Hardware) should error: 0xBA0DC66B has no hardware path")
	}
	if Hardware.Admits(CRC32K) {
		t.Error("Hardware.Admits(CRC32K) should be false")
	}
}

// reflectedParams is the CRC-32 framing (all-ones init and xorout,
// reflected in and out) around an arbitrary generator.
func reflectedParams(p poly.P) Params {
	mask := uint32(1)<<uint(p.Width()) - 1
	if p.Width() == 32 {
		mask = ^uint32(0)
	}
	return Params{Poly: p, Init: mask, RefIn: true, RefOut: true, XorOut: mask}
}

func TestAutoEngineChecksumsCorrectly(t *testing.T) {
	// Whatever Auto picks, the checksum must match the bitwise
	// reference — selection can never change the answer.
	data := []byte("123456789")
	for _, p := range []Params{CRC32IEEE, CRC32C, CRC32K} {
		want := crc.NewBitwise(p).Checksum(data)
		if p.Check != 0 && want != p.Check {
			t.Fatalf("%s: reference %#x disagrees with catalogue check %#x", p.Name, want, p.Check)
		}
		if got := New(p).Checksum(data); got != want {
			t.Errorf("%s: auto engine checksum %#x, want %#x", p.Name, got, want)
		}
	}
}

// TestAutoProfileMeasuresEveryKernelClass covers every kernel class the
// selection rule can pick for 32-bit generators: each builds and agrees
// with the bitwise reference on a short input and on a 256 KiB one.
func TestAutoProfileMeasuresEveryKernelClass(t *testing.T) {
	small := []byte("123456789")
	large := make([]byte, 256<<10)
	for i := range large {
		large[i] = byte(i*31 + i>>8)
	}
	classes := []struct {
		name string
		p    Params
		k    Kind
	}{
		{"table", CRC32K, Table},
		{"slicing16", CRC32K, Slicing16},
		{"hardware[ieee]", CRC32IEEE, Hardware},
		{"hardware[castagnoli]", CRC32C, Hardware},
	}
	for _, c := range classes {
		e, err := NewEngine(c.p, c.k)
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		ref := crc.NewBitwise(c.p)
		for _, data := range [][]byte{small, large} {
			if got, want := e.Checksum(data), ref.Checksum(data); got != want {
				t.Errorf("%s: %d-byte checksum %#x, want %#x", c.name, len(data), got, want)
			}
		}
	}
}

// TestAutoKindAdmissibleAndMeasured checks that Auto always builds an
// admissible concrete kind, and that it is the first admissible one in
// the preference order hardware, slicing16, table, bitwise.
func TestAutoKindAdmissibleAndMeasured(t *testing.T) {
	ccitt, err := Lookup("CRC-16/CCITT-FALSE")
	if err != nil {
		t.Fatal(err)
	}
	crc5 := Pure(poly.MustKoopman(5, 0x15))
	order := []Kind{Hardware, Slicing16, Table, Bitwise}
	for _, p := range []Params{CRC32IEEE, CRC32C, CRC32K, ccitt, crc5} {
		k := KindOf(New(p))
		if k == Auto || !k.Admits(p) {
			t.Errorf("%s: New built %v (admits: %v)", p.Name, k, k.Admits(p))
		}
		e, err := NewEngine(p, Auto)
		if err != nil {
			t.Fatal(err)
		}
		if KindOf(e) != k {
			t.Errorf("%s: NewEngine(Auto) built %v, New built %v", p.Name, KindOf(e), k)
		}
		for _, pref := range order {
			if pref.Admits(p) {
				if k != pref {
					t.Errorf("%s: New built %v, but %v is admissible and preferred", p.Name, k, pref)
				}
				break
			}
		}
	}
	// Outside the reflected 32-bit class the choice is structural.
	if k := KindOf(New(ccitt)); k != Table {
		t.Errorf("CCITT-FALSE: New built %v, want table", k)
	}
	if k := KindOf(New(crc5)); k != Bitwise {
		t.Errorf("width-5: New built %v, want bitwise", k)
	}
}

// TestCRCHashKindOverride checks that the retired CRCHASH_KIND variable
// no longer changes the kernel Auto builds.
func TestCRCHashKindOverride(t *testing.T) {
	for _, v := range []string{"bitwise", "table", "chorba", "warpdrive"} {
		t.Setenv("CRCHASH_KIND", v)
		if k := KindOf(New(CRC32C)); k != Hardware {
			t.Errorf("CRCHASH_KIND=%s: New(CRC32C) built %v, want hardware", v, k)
		}
		e, err := NewEngine(CRC32K, Auto)
		if err != nil {
			t.Fatal(err)
		}
		if k := KindOf(e); k != Slicing16 {
			t.Errorf("CRCHASH_KIND=%s: NewEngine(CRC32K, Auto) built %v, want slicing16", v, k)
		}
	}
}

// TestRemeasureSwapsProfileAndInvalidatesCache checks that Remeasure,
// now a no-op, leaves the cached ForAlgorithm engine in place.
func TestRemeasureSwapsProfileAndInvalidatesCache(t *testing.T) {
	e1, err := ForAlgorithm("CRC-32/IEEE-802.3")
	if err != nil {
		t.Fatal(err)
	}
	Remeasure()
	e2, err := ForAlgorithm("CRC-32/IEEE-802.3")
	if err != nil {
		t.Fatal(err)
	}
	if e1 != e2 {
		t.Error("Remeasure replaced the cached engine")
	}
	if k := KindOf(e2); k != Hardware {
		t.Errorf("ForAlgorithm(IEEE) after Remeasure is %v, want hardware", k)
	}
	if got := e2.Checksum([]byte("123456789")); got != CRC32IEEE.Check {
		t.Errorf("checksum after Remeasure %#x, want %#x", got, CRC32IEEE.Check)
	}
}

// TestRemeasureConcurrentWithReaders runs Remeasure while other
// goroutines look up and use the cached engine (meaningful under -race).
func TestRemeasureConcurrentWithReaders(t *testing.T) {
	var wg sync.WaitGroup
	done := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				e, err := ForAlgorithm("CRC-32C/iSCSI")
				if err != nil {
					t.Error(err)
					return
				}
				if got := e.Checksum([]byte("123456789")); got != CRC32C.Check {
					t.Errorf("checksum %#x, want %#x", got, CRC32C.Check)
					return
				}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(done)
	}()
	for {
		select {
		case <-done:
			return
		default:
			Remeasure()
		}
	}
}
