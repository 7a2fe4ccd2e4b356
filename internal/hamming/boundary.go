package hamming

import "fmt"

// Strategy selects how FirstDataLen locates a weight boundary for w >= 5.
type Strategy int

// Available strategies.
const (
	// StrategyIncreasing is the paper's §4.1 method: filter at
	// geometrically increasing lengths until the breakpoint is straddled,
	// then binary-subdivide the final interval. Cheap evaluations at short
	// lengths reject quickly; only the last interval pays full cost.
	StrategyIncreasing Strategy = iota + 1
	// StrategyDirect evaluates the full length first and only then binary
	// searches. It is the baseline the paper's method is compared against.
	StrategyDirect
	// StrategyScan covers the paper's increasing lengths once each: one
	// meet-in-the-middle join grown round by round, probed in order of
	// the pattern's largest position, so the first hit is the boundary.
	// It is FirstDataLen's strategy; the other two are its baselines.
	StrategyScan
)

// FirstDataLen returns the smallest data-word length (up to maxLen) at
// which some undetectable error pattern of exactly w bits fits, together
// with a witness pattern. found is false if no such length exists within
// maxLen.
func (e *Evaluator) FirstDataLen(w, maxLen int) (int, []int, bool, error) {
	return e.FirstDataLenStrategy(w, maxLen, StrategyScan)
}

// FirstDataLenStrategy is FirstDataLen with an explicit search strategy for
// the w >= 5 boundary search.
func (e *Evaluator) FirstDataLenStrategy(w, maxLen int, s Strategy) (int, []int, bool, error) {
	if w < 2 {
		return 0, nil, false, fmt.Errorf("hamming: invalid weight %d", w)
	}
	if maxLen < 1 {
		return 0, nil, false, nil
	}
	switch w {
	case 2:
		period, err := e.Period()
		if err != nil {
			return 0, nil, false, err
		}
		// First 2-bit pattern spans positions {0, period}: codeword length
		// period+1, data length period+1-width.
		if period > uint64(e.codewordLen(maxLen)-1) {
			return 0, nil, false, nil
		}
		return e.dataLenFor(int(period)), []int{0, int(period)}, true, nil
	case 3:
		return e.firstLen3(maxLen)
	case 4:
		return e.firstLen4(maxLen)
	}
	if s == StrategyScan {
		return e.firstLenScan(w, maxLen)
	}
	return e.firstLenSearch(w, maxLen, s)
}

// firstLen3 scans codeword positions once, maintaining the syndromes of all
// {0,a} prefixes: the first position c whose syndrome completes a weight-3
// pattern is the boundary.
func (e *Evaluator) firstLen3(maxLen int) (int, []int, bool, error) {
	if err := e.begin(3, maxLen); err != nil {
		return 0, nil, false, err
	}
	defer e.spanStart(SpanW3Scan, 3, maxLen)()
	n := e.codewordLen(maxLen)
	syn := e.syndromes(n)
	m := newU32Map(n)
	for c := 1; c < n; c++ {
		if err := e.tick(3, maxLen, 1); err != nil {
			return 0, nil, false, err
		}
		if a := m.get(syn[c]); a >= 0 && int(a) != c {
			wit := []int{0, int(a), c}
			if err := e.verifyWitness(3, n, wit); err != nil {
				return 0, nil, false, err
			}
			e.Stats.EarlyExits++
			return e.dataLenFor(c), wit, true, nil
		}
		m.put(1^syn[c], int32(c))
	}
	e.Stats.Probes += int64(n)
	return 0, nil, false, nil
}

// firstLen4 is the incremental pair scan: for each new maximum position c it
// probes every pair {b,c} against the stored {0,a} syndromes. The first hit
// is the exact weight-4 boundary; the scan is O(c*^2) with a small
// cache-resident hash table.
func (e *Evaluator) firstLen4(maxLen int) (int, []int, bool, error) {
	if err := e.begin(4, maxLen); err != nil {
		return 0, nil, false, err
	}
	defer e.spanStart(SpanW4Scan, 4, maxLen)()
	n := e.codewordLen(maxLen)
	syn := e.syndromes(n)
	m := newU32Map(n)
	// Probes fold into Stats row by row (not once at the end) so the
	// counts carried by progress events stay live through what can be a
	// multi-minute scan; start anchors this call's budget check.
	start := e.Stats.Probes
	for c := 1; c < n; c++ {
		if err := e.tick(4, maxLen, int64(c-1)); err != nil {
			return 0, nil, false, err
		}
		sc := syn[c]
		for b := 1; b < c; b++ {
			if a := m.get(syn[b] ^ sc); a >= 0 {
				ia := int(a)
				if ia == b || ia == c {
					continue // degenerate: implies a lower-weight pattern
				}
				wit := []int{0, ia, b, c}
				if ia > b {
					wit = []int{0, b, ia, c}
				}
				if err := e.verifyWitness(4, n, wit); err != nil {
					return 0, nil, false, err
				}
				e.Stats.EarlyExits++
				e.Stats.Probes += int64(b)
				return e.dataLenFor(c), wit, true, nil
			}
		}
		e.Stats.Probes += int64(c - 1)
		if e.Stats.Probes-start > e.opts.MaxProbes {
			return 0, nil, false, fmt.Errorf("%w: weight-4 scan at %d codeword bits", ErrBudgetExceeded, c)
		}
		m.put(1^sc, int32(c))
	}
	return 0, nil, false, nil
}

// firstLenScan locates a w>=5 boundary in one incremental
// meet-in-the-middle scan over the largest pattern position c, in the
// paper's doubling rounds of data length (8, 16, 32, … bits). Each round
// first stores every p-subset whose largest position falls in it, then
// probes {0, c} plus (q-1)-subsets of [1, c) for each c of the round in
// order, resolving hits inside [1, c). Every canonical pattern with
// largest position c is met when c is probed, so the first c that
// resolves is the boundary. Work is charged to MaxProbes as it happens.
//
// A round whose store would overfill the set resets it to the round's
// size (a larger table or the bitmap) and stores again from position 1:
// refilling costs what rehashing would, and the old table is dropped
// before the new one is allocated.
func (e *Evaluator) firstLenScan(w, maxLen int) (int, []int, bool, error) {
	defer e.spanStart(SpanBoundary, w, maxLen)()
	j := e.newJoin(w, e.codewordLen(maxLen))
	e.set.reset(0)
	stored, next := 1, 1 // the store holds p-subsets of [1, stored); c < next are probed
	for l := min(8, maxLen); ; l = min(2*l, maxLen) {
		if err := e.begin(w, l); err != nil {
			return 0, nil, false, err
		}
		end := e.codewordLen(l)
		j.dataLen = l
		if total := binomAtMost(end-1, j.p, 1<<62); !e.set.fits(total) {
			e.set.reset(total)
			stored = 1
		}
		endStore := e.spanStart(SpanMITMStore, w, l)
		err := j.store(stored, end)
		stored = end
		endStore()
		if err != nil {
			return 0, nil, false, err
		}
		endProbe := e.spanStart(SpanMITMProbe, w, l)
		for c := next; c < end; c++ {
			wit, err := j.probe(c)
			if err != nil {
				endProbe()
				return 0, nil, false, err
			}
			if wit != nil {
				endProbe()
				if err := e.verifyWitness(w, c+1, wit); err != nil {
					return 0, nil, false, err
				}
				e.Stats.EarlyExits++
				return e.dataLenFor(c), wit, true, nil
			}
		}
		endProbe()
		if l == maxLen {
			return 0, nil, false, nil
		}
		next = end
	}
}

// firstLenSearch locates a w>=5 boundary with existence queries.
func (e *Evaluator) firstLenSearch(w, maxLen int, s Strategy) (int, []int, bool, error) {
	defer e.spanStart(SpanBoundary, w, maxLen)()
	// lo is the largest length known to have no weight-w pattern; hi the
	// smallest known to have one.
	lo, hi := 0, 0
	var hiWitness []int
	switch s {
	case StrategyDirect:
		wit, found, err := e.Exists(w, maxLen)
		if err != nil {
			return 0, nil, false, err
		}
		if !found {
			return 0, nil, false, nil
		}
		hi, hiWitness = maxLen, wit
	default: // StrategyIncreasing
		prev := 0
		for l := 8; ; l *= 2 {
			if l > maxLen {
				l = maxLen
			}
			wit, found, err := e.Exists(w, l)
			if err != nil {
				return 0, nil, false, err
			}
			if found {
				lo, hi, hiWitness = prev, l, wit
				break
			}
			prev = l
			if l == maxLen {
				return 0, nil, false, nil
			}
		}
		lo = prev
	}
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		wit, found, err := e.Exists(w, mid)
		if err != nil {
			return 0, nil, false, err
		}
		if found {
			hi, hiWitness = mid, wit
		} else {
			lo = mid
		}
	}
	return hi, hiWitness, true, nil
}

// HDAt returns the exact Hamming distance at the given data-word length,
// searching weights up to maxHD. If no undetectable pattern of weight <=
// maxHD exists, it returns maxHD+1 with exact = false (the true HD is at
// least that).
func (e *Evaluator) HDAt(dataLen, maxHD int) (hd int, exact bool, err error) {
	for w := 2; w <= maxHD; w++ {
		_, found, err := e.Exists(w, dataLen)
		if err != nil {
			return 0, false, err
		}
		if found {
			return w, true, nil
		}
	}
	return maxHD + 1, false, nil
}

// MeetsHD reports whether the polynomial attains at least the given Hamming
// distance at the data-word length: no undetectable pattern of weight
// < minHD exists. This is the paper's filtering predicate — evaluation
// stops at the first non-zero weight rather than computing exact weights.
func (e *Evaluator) MeetsHD(dataLen, minHD int) (bool, error) {
	for w := 2; w < minHD; w++ {
		_, found, err := e.Exists(w, dataLen)
		if err != nil {
			return false, err
		}
		if found {
			return false, nil
		}
	}
	return true, nil
}

// MeetsHDAtLengths applies MeetsHD at each length in order — the paper's
// "filtering with increasing lengths": a polynomial rejected at a short
// length is never evaluated at the expensive longer ones.
func (e *Evaluator) MeetsHDAtLengths(lengths []int, minHD int) (bool, error) {
	for _, l := range lengths {
		ok, err := e.MeetsHD(l, minHD)
		if err != nil {
			return false, err
		}
		if !ok {
			return false, nil
		}
	}
	return true, nil
}
