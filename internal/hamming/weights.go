package hamming

import "fmt"

// Weight returns the exact number of undetectable error patterns of exactly
// w bits within the codeword of the given data-word length — the paper's
// weight W_w. Exact computation is supported for w <= 4; the paper itself
// notes that exact weights beyond the first non-zero one are "largely
// unimportant" (§3) and that exact weighting of the HD=6 survivors was
// impractical (§4.2). Use WeightBrute for small lengths and higher weights.
func (e *Evaluator) Weight(w, dataLen int) (uint64, error) {
	if dataLen < 1 {
		return 0, fmt.Errorf("hamming: invalid data length %d", dataLen)
	}
	switch w {
	case 1:
		return 0, nil
	case 2:
		return e.weight2(dataLen)
	case 3:
		return e.weight3(dataLen)
	case 4:
		return e.weight4(dataLen)
	default:
		return 0, fmt.Errorf("hamming: exact weight computation supports w <= 4, got %d (use WeightBrute)", w)
	}
}

// weight2 counts pairs {i, i+k*period}: the 2-bit patterns x^i (1 + x^(kp)).
func (e *Evaluator) weight2(dataLen int) (uint64, error) {
	period, err := e.Period()
	if err != nil {
		return 0, err
	}
	n := uint64(e.codewordLen(dataLen))
	if steps := (n - 1) / period; steps > uint64(e.opts.MaxProbes) {
		return 0, fmt.Errorf("%w: exact W2 at %d codeword bits needs %d scan steps (limit %d)",
			ErrBudgetExceeded, n, steps, e.opts.MaxProbes)
	}
	if err := e.begin(2, dataLen); err != nil {
		return 0, err
	}
	defer e.spanStart(SpanW2Count, 2, dataLen)()
	var total uint64
	for k := uint64(1); k*period <= n-1; k++ {
		total += n - k*period
		e.Stats.Probes++
		if err := e.tick(2, dataLen, 1); err != nil {
			return 0, err
		}
	}
	return total, nil
}

// weight3 counts weight-3 multiples of G by enumerating canonical patterns
// {0, a, c} (bit 0 set) and crediting each with its N-c translates.
func (e *Evaluator) weight3(dataLen int) (uint64, error) {
	n := e.codewordLen(dataLen)
	if int64(n-1) > e.opts.MaxProbes {
		return 0, fmt.Errorf("%w: exact W3 at %d codeword bits needs %d scan steps (limit %d)",
			ErrBudgetExceeded, n, n-1, e.opts.MaxProbes)
	}
	if err := e.begin(3, dataLen); err != nil {
		return 0, err
	}
	defer e.spanStart(SpanW3Count, 3, dataLen)()
	syn := e.syndromes(n)
	counts := newU32Count(n)
	var total uint64
	for c := 1; c < n; c++ {
		e.Stats.Probes++
		if err := e.tick(3, dataLen, 1); err != nil {
			return 0, err
		}
		if m := counts.count(syn[c]); m > 0 {
			total += uint64(m) * uint64(n-c)
		}
		counts.add(1 ^ syn[c])
	}
	e.Stats.StoreOps += int64(n - 1)
	return total, nil
}

// w4FilterBits is the log2 size of the weight-4 count's prefilter: 2^20
// bits (128 KiB) stay in L2 and leave a position map of a few ten
// thousand entries behind a 1–5% false-pass rate.
const w4FilterBits = 20

// weight4 counts weight-4 multiples of G by enumerating canonical
// patterns {0, a, b, c} (bit 0 set, a < b < c) and crediting each with
// its N-c translates, as weight3 does. With W2 = 0 at this length the N
// position syndromes are distinct, so each pair {a, b} completes with at
// most one c: the position whose syndrome is 1 ^ syn[a] ^ syn[b], found
// in a syndrome-to-position map behind a prefilter. W2 > 0 is detected
// as a repeated syndrome and reported as an error.
func (e *Evaluator) weight4(dataLen int) (uint64, error) {
	n := e.codewordLen(dataLen)
	pairs := int64(n) * int64(n-1) / 2
	if pairs > int64(e.opts.MaxPairBuffer) {
		return 0, fmt.Errorf("%w: exact W4 at %d codeword bits needs %d position pairs (limit %d)",
			ErrBudgetExceeded, n, pairs, e.opts.MaxPairBuffer)
	}
	if err := e.begin(4, dataLen); err != nil {
		return 0, err
	}
	defer e.spanStart(SpanW4Count, 4, dataLen)()
	syn := e.syndromes(n)
	at := newU32Map(n)
	var filter prefilter
	filter.reset(w4FilterBits, false)
	for c, s := range syn {
		if at.get(s) >= 0 {
			return 0, fmt.Errorf("hamming: W2 > 0 at data length %d; canonical W4 count inapplicable", dataLen)
		}
		at.put(s, int32(c))
		filter.add(s)
	}
	e.Stats.StoreOps += int64(n)
	var total uint64
	for a := 1; a < n; a++ {
		if err := e.tick(4, dataLen, int64(n-1-a)); err != nil {
			return 0, err
		}
		va := 1 ^ syn[a]
		for b := a + 1; b < n; b++ {
			v := va ^ syn[b]
			if !filter.has(v) {
				continue
			}
			if c := int(at.get(v)); c > b {
				total += uint64(n - c)
			}
		}
		e.Stats.Probes += int64(n - 1 - a)
	}
	return total, nil
}
