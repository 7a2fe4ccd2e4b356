package main

import (
	"encoding/binary"
	"strings"
)

// cpuid executes the CPUID instruction (cpuid_amd64.s).
func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)

// cpuFeatures reads the processor brand string and the carry-less
// multiply and AVX-512 foundation flags straight from CPUID.
func cpuFeatures() (brand string, pclmul, avx512 bool) {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf >= 1 {
		_, _, ecx, _ := cpuid(1, 0)
		pclmul = ecx&(1<<1) != 0
	}
	if maxLeaf >= 7 {
		_, ebx, _, _ := cpuid(7, 0)
		avx512 = ebx&(1<<16) != 0
	}
	if maxExt, _, _, _ := cpuid(0x80000000, 0); maxExt >= 0x80000004 {
		var b [48]byte
		for i := uint32(0); i < 3; i++ {
			a, bx, c, d := cpuid(0x80000002+i, 0)
			for j, v := range []uint32{a, bx, c, d} {
				binary.LittleEndian.PutUint32(b[i*16+uint32(j)*4:], v)
			}
		}
		brand = strings.TrimSpace(strings.TrimRight(string(b[:]), "\x00"))
	}
	return brand, pclmul, avx512
}
