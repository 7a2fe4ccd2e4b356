package hamming

import (
	"sort"
	"time"
)

// Band is a maximal range of data-word lengths sharing one Hamming
// distance, a cell of the paper's Table 1.
type Band struct {
	HD      int  // Hamming distance over the range
	AtLeast bool // true if HD is a lower bound (profile's maxHD reached)
	From    int  // first data-word length, inclusive, in bits
	To      int  // last data-word length, inclusive, in bits
}

// Transition records where weight w first becomes non-zero.
type Transition struct {
	W        int           // pattern weight
	FirstLen int           // smallest data-word length with W_w > 0
	Witness  []int         // example undetectable pattern (bit positions)
	Elapsed  time.Duration // search time, for the §4.1 cost discussion
}

// Bands is an HD-vs-length profile: contiguous bands ascending by From,
// one column of the paper's Table 1 / one curve of Figure 1.
type Bands []Band

// NewBands converts weight boundaries into the contiguous HD bands
// covering [1, maxLen]: at each length the HD is the smallest weight whose
// boundary has been reached, or at least maxHD+1 before any has.
func NewBands(ts []Transition, maxLen, maxHD int) Bands {
	events := append([]Transition(nil), ts...)
	sort.Slice(events, func(i, j int) bool { return events[i].FirstLen < events[j].FirstLen })
	var bands Bands
	cur := 1
	minW := 0 // 0 = no boundary active yet: HD is at least maxHD+1
	flush := func(to int) {
		if to < cur {
			return
		}
		if minW == 0 {
			bands = append(bands, Band{HD: maxHD + 1, AtLeast: true, From: cur, To: to})
		} else {
			bands = append(bands, Band{HD: minW, From: cur, To: to})
		}
		cur = to + 1
	}
	for i := 0; i < len(events); {
		l := events[i].FirstLen
		if l > maxLen {
			break
		}
		flush(l - 1)
		for i < len(events) && events[i].FirstLen == l {
			if minW == 0 || events[i].W < minW {
				minW = events[i].W
			}
			i++
		}
	}
	flush(maxLen)
	return bands
}

// HDAt returns the Hamming distance at a length (atLeast is true when the
// profile depth truncated the answer; ok is false outside the profile).
func (bs Bands) HDAt(dataLen int) (hd int, atLeast bool, ok bool) {
	for _, b := range bs {
		if dataLen >= b.From && dataLen <= b.To {
			return b.HD, b.AtLeast, true
		}
	}
	return 0, false, false
}

// MaxLenAtHD returns the largest length at which the profile guarantees at
// least the given Hamming distance — the figure of merit the paper quotes
// (e.g. "HD=6 up to 16,360 bits" for 0xBA0DC66B).
func (bs Bands) MaxLenAtHD(hd int) (int, bool) {
	best := 0
	for _, b := range bs {
		if b.HD >= hd && b.To > best {
			best = b.To
		}
	}
	return best, best > 0
}
