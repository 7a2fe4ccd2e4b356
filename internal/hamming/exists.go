package hamming

import (
	"fmt"
	"math"
	"sort"
)

// Exists reports whether an undetectable error pattern of exactly w bits
// fits within the codeword of the given data-word length (dataLen + width
// bits total). On success it returns the sorted bit positions of one such
// pattern — a weight-w multiple of the generator. Position 0 is the lowest
// FCS bit.
//
// Weight 2 follows directly from the polynomial period. Higher weights use
// a meet-in-the-middle join over position syndromes: a canonical pattern
// contains position 0, its remaining w-1 positions are split into a stored
// p-subset side and a probed q-subset side, and a probe hitting a stored
// syndrome value is exactly an undetectable pattern (up to position
// overlap, which is re-verified before reporting).
func (e *Evaluator) Exists(w, dataLen int) ([]int, bool, error) {
	if w < 1 {
		return nil, false, fmt.Errorf("hamming: invalid weight %d", w)
	}
	if dataLen < 1 {
		return nil, false, fmt.Errorf("hamming: invalid data length %d", dataLen)
	}
	n := e.codewordLen(dataLen)
	if w > n {
		return nil, false, nil
	}
	switch w {
	case 1:
		// A single flipped bit always has non-zero syndrome.
		return nil, false, nil
	case 2:
		period, err := e.Period()
		if err != nil {
			return nil, false, err
		}
		if period <= uint64(n-1) {
			return []int{0, int(period)}, true, nil
		}
		return nil, false, nil
	default:
		return e.meetInMiddle(w, n)
	}
}

// meetInMiddle searches for a weight-w multiple of G within n codeword
// bits. The store side is every p-subset of [1, n); the probe side every
// q-subset, taken in order of its largest position.
func (e *Evaluator) meetInMiddle(w, n int) ([]int, bool, error) {
	dataLen := n - e.width
	if err := e.begin(w, dataLen); err != nil {
		return nil, false, err
	}
	p, q := splitWeight(w)
	storeCount := binomAtMost(n-1, p, 1<<62)
	probeCount := binomAtMost(n-1, q, 1<<62)
	if storeCount+probeCount > e.opts.MaxProbes {
		return nil, false, fmt.Errorf("%w: weight %d at %d codeword bits needs %d operations",
			ErrBudgetExceeded, w, n, storeCount+probeCount)
	}
	j := e.newJoin(w, n)
	j.dataLen, j.resolveTo = dataLen, n
	e.set.reset(storeCount)

	endStore := e.spanStart(SpanMITMStore, w, dataLen)
	err := j.store(1, n)
	endStore()
	if err != nil {
		return nil, false, err
	}

	endProbe := e.spanStart(SpanMITMProbe, w, dataLen)
	defer endProbe()
	for c := 1; c < n; c++ {
		wit, err := j.probe(c)
		if err != nil {
			return nil, false, err
		}
		if wit != nil {
			if err := e.verifyWitness(w, n, wit); err != nil {
				return nil, false, err
			}
			e.Stats.EarlyExits++
			return wit, true, nil
		}
	}
	return nil, false, nil
}

// splitWeight divides the w-1 positions of a canonical pattern besides 0
// into the p stored and the q probed, p <= q: the smaller side is
// materialised.
func splitWeight(w int) (p, q int) {
	p = (w - 1) / 2
	return p, w - 1 - p
}

// verifyWitness defensively re-checks a reported pattern: correct weight,
// in-range sorted distinct positions, zero syndrome.
func (e *Evaluator) verifyWitness(w, n int, witness []int) error {
	if len(witness) != w {
		return fmt.Errorf("hamming: internal error: witness size %d != weight %d", len(witness), w)
	}
	var acc uint32
	for i, pos := range witness {
		if pos < 0 || pos >= n || (i > 0 && pos <= witness[i-1]) {
			return fmt.Errorf("hamming: internal error: bad witness %v", witness)
		}
		acc ^= e.syn[pos]
	}
	if acc != 0 {
		return fmt.Errorf("hamming: internal error: witness %v has syndrome %#x", witness, acc)
	}
	return nil
}

// join is one meet-in-the-middle search for canonical weight-w patterns
// {0} ∪ S: S splits into a p-subset whose syndromes the evaluator's set
// stores and a q-subset probed against them. Probes go by the largest
// probe position c, as {0, c} plus q-1 positions of [1, c).
type join struct {
	e       *Evaluator
	syn     []uint32
	w, p, q int
	dataLen int // labels progress events and budget errors

	// resolveTo bounds the store positions a hit resolves with, [1,
	// resolveTo); 0 means [1, c), for a scan whose store already holds
	// positions past the c it probes.
	resolveTo int
	budget    int64 // e.Stats.Probes+StoreOps may not exceed it
	pos       []int // probe positions chosen so far
}

// newJoin prepares a weight-w join over the first n positions. The
// caller resets the evaluator's set.
func (e *Evaluator) newJoin(w, n int) *join {
	p, q := splitWeight(w)
	budget := e.Stats.Probes + e.Stats.StoreOps
	if budget > math.MaxInt64-e.opts.MaxProbes {
		budget = math.MaxInt64
	} else {
		budget += e.opts.MaxProbes
	}
	return &join{e: e, syn: e.syndromes(n), w: w, p: p, q: q, budget: budget, pos: make([]int, 0, q+1)}
}

// charge adds ops to a work counter, then polls progress and
// cancellation and checks the budget.
func (j *join) charge(counter *int64, ops int) error {
	e := j.e
	*counter += int64(ops)
	if err := e.tick(j.w, j.dataLen, int64(ops)); err != nil {
		return err
	}
	if e.Stats.Probes+e.Stats.StoreOps > j.budget {
		return fmt.Errorf("%w: weight-%d search at %d data bits", ErrBudgetExceeded, j.w, j.dataLen)
	}
	return nil
}

// store adds every p-subset whose largest position lies in [lo, hi).
func (j *join) store(lo, hi int) error {
	for m := max(lo, j.p); m < hi; m++ {
		if err := j.addSubsets(m, j.p-1, j.syn[m]); err != nil {
			return err
		}
	}
	return nil
}

// addSubsets stores acc XOR each k-subset of [1, hi), choosing the
// largest position first so the innermost level is one straight loop.
func (j *join) addSubsets(hi, k int, acc uint32) error {
	set := &j.e.set
	switch k {
	case 0:
		set.add(acc)
		return j.charge(&j.e.Stats.StoreOps, 1)
	case 1:
		for i := 1; i < hi; i++ {
			set.add(acc ^ j.syn[i])
		}
		return j.charge(&j.e.Stats.StoreOps, hi-1)
	}
	for i := k; i < hi; i++ {
		if err := j.addSubsets(i, k-1, acc^j.syn[i]); err != nil {
			return err
		}
	}
	return nil
}

// probe tests every pattern whose largest probe position is c. It returns
// the first hit that resolves into a weight-w pattern, sorted.
func (j *join) probe(c int) ([]int, error) {
	if c < j.q {
		return nil, nil
	}
	return j.probeSubsets(c, c, j.q-1, 1^j.syn[c])
}

// probeSubsets tests acc XOR each k-subset of [1, hi) against the store,
// largest position first, like addSubsets.
func (j *join) probeSubsets(c, hi, k int, acc uint32) ([]int, error) {
	e := j.e
	switch k {
	case 0:
		if e.set.has(acc) {
			if wit := j.resolveHit(c, acc); wit != nil {
				return wit, nil
			}
		}
		return nil, j.charge(&e.Stats.Probes, 1)
	case 1:
		set := &e.set
		for i := 1; i < hi; i++ {
			if v := acc ^ j.syn[i]; set.filter.has(v) && set.confirm(v) {
				j.pos = append(j.pos, i)
				wit := j.resolveHit(c, v)
				j.pos = j.pos[:len(j.pos)-1]
				if wit != nil {
					e.Stats.Probes += int64(i)
					return wit, nil
				}
			}
		}
		return nil, j.charge(&e.Stats.Probes, hi-1)
	}
	for i := k; i < hi; i++ {
		j.pos = append(j.pos, i)
		wit, err := j.probeSubsets(c, i, k-1, acc^j.syn[i])
		j.pos = j.pos[:len(j.pos)-1]
		if wit != nil || err != nil {
			return wit, err
		}
	}
	return nil, nil
}

// resolveHit turns a hit of the probe {0, c} ∪ pos into a witness, or nil
// when no stored subset completes it disjointly.
func (j *join) resolveHit(c int, target uint32) []int {
	lim := j.resolveTo
	if lim == 0 {
		lim = c
	}
	probeSet := append([]int{0, c}, j.pos...)
	wit, ok := j.e.resolve(j.syn, lim, j.p, target, probeSet)
	if !ok {
		return nil
	}
	return wit
}

// resolve turns a store hit into an explicit witness: it re-enumerates
// p-subsets of [1, n) with the target syndrome and returns the first one
// disjoint from the probe positions. A hit with no disjoint completion
// implies a lower-weight undetectable pattern, or in the boundary scan a
// pattern reaching past the probed c; such hits are skipped (the caller
// will already have found the former at the lower weight, and meets the
// latter at its own largest position).
func (e *Evaluator) resolve(syn []uint32, n, p int, target uint32, probeSet []int) ([]int, bool) {
	e.Stats.Resolutions++
	inProbe := func(i int) bool {
		for _, b := range probeSet {
			if b == i {
				return true
			}
		}
		return false
	}
	emit := func(storePos []int) []int {
		out := make([]int, 0, len(probeSet)+p)
		out = append(out, probeSet...)
		out = append(out, storePos...)
		sort.Ints(out)
		return out
	}
	switch p {
	case 1:
		for i := 1; i < n; i++ {
			if syn[i] == target && !inProbe(i) {
				return emit([]int{i}), true
			}
		}
	case 2:
		for i := 1; i < n; i++ {
			if inProbe(i) {
				continue
			}
			want := target ^ syn[i]
			for j := i + 1; j < n; j++ {
				if syn[j] == want && !inProbe(j) {
					return emit([]int{i, j}), true
				}
			}
		}
	default:
		pos := make([]int, 0, p)
		var rec func(start, left int, acc uint32) ([]int, bool)
		rec = func(start, left int, acc uint32) ([]int, bool) {
			if left == 0 {
				if acc == target {
					return emit(append([]int(nil), pos...)), true
				}
				return nil, false
			}
			for i := start; i <= n-left; i++ {
				if inProbe(i) {
					continue
				}
				pos = append(pos, i)
				if wit, ok := rec(i+1, left-1, acc^syn[i]); ok {
					return wit, true
				}
				pos = pos[:len(pos)-1]
			}
			return nil, false
		}
		return rec(1, p, 0)
	}
	return nil, false
}

// binomAtMost returns min(C(n,k), limit), guarding against overflow.
func binomAtMost(n, k int, limit int64) int64 {
	if k < 0 || n < 0 || k > n {
		return 0
	}
	if k > n-k {
		k = n - k
	}
	result := int64(1)
	for i := 1; i <= k; i++ {
		// result *= (n-k+i); result /= i — with overflow guard.
		next := result * int64(n-k+i)
		if next/int64(n-k+i) != result || next < 0 {
			return limit
		}
		result = next / int64(i)
		if result >= limit {
			return limit
		}
	}
	return result
}
