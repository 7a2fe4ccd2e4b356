package hamming

import "math/bits"

// prefilter is a bit filter over uint32 keys. Hashed, a clear bit proves
// a key absent, so lookups that mostly miss rarely reach the table
// behind it. Exact, it has one bit per key value: the bitmap over a
// whole syndrome space.
type prefilter struct {
	bits  []uint64
	mul   uint64 // fib when hashed, 1 when exact
	shift uint   // key*mul >> shift is the key's bit
}

// reset sizes the filter to 2^logBits bits, all clear, reusing its
// buffer when it is large enough. An exact filter indexes by the key
// itself, so it needs logBits at least the key width.
func (f *prefilter) reset(logBits int, exact bool) {
	words := max(1, 1<<logBits>>6)
	if cap(f.bits) >= words {
		f.bits = f.bits[:words]
		clear(f.bits)
	} else {
		f.bits = nil // collectable while the new buffer is allocated
		f.bits = make([]uint64, words)
	}
	f.mul, f.shift = fib, uint(64-logBits)
	if exact {
		f.mul, f.shift = 1, 0
	}
}

func (f *prefilter) add(k uint32) {
	b := uint64(k) * f.mul >> f.shift
	f.bits[b>>6] |= 1 << (b & 63)
}

func (f *prefilter) has(k uint32) bool {
	b := uint64(k) * f.mul >> f.shift
	return f.bits[b>>6]&(1<<(b&63)) != 0
}

// filterBitsPerSlot sizes the prefilter against the table: with the
// table at most half full, 8 to 16 filter bits per key, so a missing key
// passes the filter 6–12% of the time while the filter takes an eighth
// of the table's bytes.
const filterBitsPerSlot = 4

// synSet is the presence set over syndrome values that both sides of a
// meet-in-the-middle join share. It is a keys-only open-addressed table
// behind a hashed prefilter until the table would need at least the
// bytes of a bitmap over all 2^width syndromes; from then on it is that
// bitmap, an exact filter with no table behind it.
type synSet struct {
	width   int
	maxKeys int // most keys the table holds (Options.MaxStoreEntries)

	filter prefilter
	keys   []uint32 // open addressed, at most half full, 0 marks an empty slot; nil for the bitmap
	shift  uint     // key*fib >> shift is the key's home slot
	zero   bool     // key 0, which the table cannot hold
}

// defaultMaxStoreEntries is the largest key count whose table (two 4-byte
// slots per key, rounded up to a power of two) is smaller than the
// 2^width-bit bitmap.
func defaultMaxStoreEntries(width int) int { return 1 << width >> 7 }

// reset empties the set for a join that stores at most total keys: a
// table when total is within maxKeys, else the bitmap. It reuses the
// chosen form's buffers and drops the other form's before allocating,
// so the set never holds both a large table and the bitmap.
func (s *synSet) reset(total int64) {
	s.zero = false
	if total > int64(s.maxKeys) {
		s.keys = nil
		if s.filter.mul != 1 {
			s.filter = prefilter{}
		}
		s.filter.reset(s.width, true)
		return
	}
	if s.filter.mul != fib {
		s.filter = prefilter{}
	}
	logSlots := max(4, bits.Len(uint(max(2*total-1, 0))))
	if slots := 1 << logSlots; cap(s.keys) >= slots {
		s.keys = s.keys[:slots]
		clear(s.keys)
	} else {
		s.keys = nil // collectable while the new buffer is allocated
		s.keys = make([]uint32, slots)
	}
	s.shift = uint(64 - logSlots)
	s.filter.reset(logSlots+bits.Len(filterBitsPerSlot-1), false)
}

// fits reports whether the set can take total keys in all without a
// reset: always as the bitmap, as a table while it stays at most half
// full and within maxKeys.
func (s *synSet) fits(total int64) bool {
	return s.keys == nil || (total <= int64(s.maxKeys) && 2*total <= int64(len(s.keys)))
}

// add inserts k; the set was reset for at least as many keys as are
// added.
func (s *synSet) add(k uint32) {
	s.filter.add(k)
	if s.keys == nil {
		return
	}
	if k == 0 {
		s.zero = true
		return
	}
	mask := len(s.keys) - 1
	for i := int(uint64(k) * fib >> s.shift); ; i = (i + 1) & mask {
		switch s.keys[i] {
		case 0:
			s.keys[i] = k
			return
		case k:
			return
		}
	}
}

// has reports whether k is in the set. Hot loops test s.filter.has
// inline and call confirm only for keys that pass.
func (s *synSet) has(k uint32) bool { return s.filter.has(k) && s.confirm(k) }

// confirm decides a key that passed the filter: the bitmap is exact,
// the table is searched.
func (s *synSet) confirm(k uint32) bool {
	if s.keys == nil {
		return true
	}
	if k == 0 {
		return s.zero
	}
	mask := len(s.keys) - 1
	for i := int(uint64(k) * fib >> s.shift); ; i = (i + 1) & mask {
		switch s.keys[i] {
		case k:
			return true
		case 0:
			return false
		}
	}
}
