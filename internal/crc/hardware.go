package crc

import (
	"fmt"
	"hash/crc32"
)

// Hardware delegates to the standard library's hash/crc32, which uses
// CLMUL folding for the IEEE polynomial and the SSE4.2 / ARMv8 CRC32C
// instructions for Castagnoli where the CPU has them. For any other
// generator hash/crc32 runs a portable byte-table loop slower than
// Slicing16, so the engine admits only those two generators.
type Hardware struct {
	params Params
	tab    *crc32.Table
}

var _ Engine = (*Hardware)(nil)

// NewHardware builds the stdlib-delegating engine.
func NewHardware(p Params) (*Hardware, error) {
	if p.Poly.Width() != 32 {
		return nil, fmt.Errorf("crc: hardware engine requires width 32, got %d", p.Poly.Width())
	}
	if !p.RefIn || !p.RefOut {
		return nil, fmt.Errorf("crc: hardware engine requires reflected input and output")
	}
	rev := uint32(p.Poly.Reversed())
	if rev != crc32.IEEE && rev != crc32.Castagnoli {
		return nil, fmt.Errorf("crc: hardware engine requires the IEEE or Castagnoli generator, got %v", p.Poly)
	}
	return &Hardware{params: p, tab: crc32.MakeTable(rev)}, nil
}

// Params implements Engine.
func (e *Hardware) Params() Params { return e.params }

// Init implements Engine. The state is held in reflected form like
// every reflected engine in this package.
func (e *Hardware) Init() uint32 { return reverseBits(e.params.Init, 32) }

// Finalize implements Engine.
func (e *Hardware) Finalize(state uint32) uint32 { return state ^ e.params.XorOut }

// Update implements Engine. hash/crc32's Update is the same reflected
// table recurrence wrapped in complements — Update(c, tab, p) computes
// ^update(^c, p) over the raw reflected register — so un-complementing
// at the boundary yields exactly this package's pure reflected state,
// for any Init/XorOut convention.
func (e *Hardware) Update(state uint32, data []byte) uint32 {
	return ^crc32.Update(^state, e.tab, data)
}

// Checksum implements Engine.
func (e *Hardware) Checksum(data []byte) uint32 {
	return e.Finalize(e.Update(e.Init(), data))
}
