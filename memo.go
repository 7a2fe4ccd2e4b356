package koopmancrc

import (
	"context"
	"fmt"
	"sort"

	"koopmancrc/internal/hamming"
	"koopmancrc/internal/poly"
)

// MemoSnapshotVersion is the schema version stamped into every exported
// MemoSnapshot. RestoreMemos rejects snapshots from a newer schema, so
// a corpus baked by a future release fails loudly instead of being
// half-understood.
const MemoSnapshotVersion = 1

// BoundMemo is the knowledge about one pattern weight: an exact
// first-length boundary once discovered, or the tightest proven-clear
// prefix and cheapest known hit until then. It is both the Analyzer's
// live memo entry and its serialized form. A BoundMemo only ever states
// facts about the polynomial, and queries only ever extend them, which is
// what makes every Analyzer method safe to answer from the memo and
// merging two BoundMemos a pure union of knowledge.
type BoundMemo struct {
	Weight int `json:"weight"`
	// ClearTo: no weight-Weight pattern exists at any data length <=
	// ClearTo.
	ClearTo int `json:"clear_to,omitempty"`
	// HitAt, when non-zero, is a data length with a known pattern;
	// Witness backs it.
	HitAt   int   `json:"hit_at,omitempty"`
	Witness []int `json:"witness,omitempty"`
	// First is the exact smallest data length with a pattern, valid only
	// when Exact is set.
	First int  `json:"first,omitempty"`
	Exact bool `json:"exact,omitempty"`
	// ElapsedNS is the engine cost of the exact boundary search, carried
	// so a restored session reports the original discovery cost.
	ElapsedNS int64 `json:"elapsed_ns,omitempty"`
}

// WeightMemo is one exact undetectable-pattern count: Count weight-W
// patterns at data length DataLen.
type WeightMemo struct {
	Weight  int    `json:"weight"`
	DataLen int    `json:"data_len"`
	Count   uint64 `json:"count"`
}

// MemoSnapshot is the portable form of an Analyzer session's memoized
// knowledge — weight boundaries with witnesses, exact pattern counts,
// and the engine work it cost to acquire them — keyed by the polynomial
// it describes. Snapshots are what the persistent analysis corpus
// stores: bake once, restore into any number of future sessions, and
// every restored fact is answered with zero engine probes.
//
// Everything in a snapshot is a mathematical fact about the polynomial,
// independent of the session options (MaxHD, limits) under which it was
// discovered, which is why snapshots merge and restore across sessions
// configured differently.
type MemoSnapshot struct {
	Version int `json:"version"`
	Width   int `json:"width"`
	// Poly is the polynomial in Koopman notation.
	Poly uint64 `json:"poly"`
	// Probes is the cumulative engine work the knowledge cost to build,
	// summed across the sessions (and restores) that contributed to it —
	// the "cost to rebuild from scratch" a serving tier weighs when
	// deciding what to keep.
	Probes  int64        `json:"probes,omitempty"`
	Bounds  []BoundMemo  `json:"bounds,omitempty"`
	Weights []WeightMemo `json:"weights,omitempty"`
}

// Entries counts the discrete facts the snapshot holds.
func (m *MemoSnapshot) Entries() int { return len(m.Bounds) + len(m.Weights) }

// Clone deep-copies the snapshot so callers can mutate (merge into) it
// without aliasing a shared store entry.
func (m *MemoSnapshot) Clone() *MemoSnapshot {
	out := &MemoSnapshot{Version: m.Version, Width: m.Width, Poly: m.Poly, Probes: m.Probes}
	if m.Bounds != nil {
		out.Bounds = make([]BoundMemo, len(m.Bounds))
		for i, b := range m.Bounds {
			b.Witness = copyPositions(b.Witness)
			out.Bounds[i] = b
		}
	}
	out.Weights = append([]WeightMemo(nil), m.Weights...)
	return out
}

// Validate checks the snapshot's internal consistency: version and
// width in range, weights sane, exact boundaries with a positive first
// length, no clear-prefix contradicting a known hit, and every hit
// backed by a witness that is a genuine undetectable pattern of the
// polynomial fitting the hit's length. A snapshot read from a
// CRC-protected corpus can only fail this through a software bug, schema
// drift or a forged record, never silent disk corruption — but a restore
// must still refuse it, because a corrupt memo would be served as truth.
func (m *MemoSnapshot) Validate() error {
	if m == nil {
		return fmt.Errorf("koopmancrc: nil memo snapshot")
	}
	if m.Version < 1 || m.Version > MemoSnapshotVersion {
		return fmt.Errorf("koopmancrc: memo snapshot version %d not supported (have %d)", m.Version, MemoSnapshotVersion)
	}
	if m.Width < 2 || m.Width > 64 {
		return fmt.Errorf("koopmancrc: memo snapshot width %d out of range", m.Width)
	}
	if m.Probes < 0 {
		return fmt.Errorf("koopmancrc: memo snapshot has negative probe count %d", m.Probes)
	}
	var ev *hamming.Evaluator // built for the first witness to check
	for i, b := range m.Bounds {
		if b.Weight < 2 {
			return fmt.Errorf("koopmancrc: bounds[%d]: weight %d below 2", i, b.Weight)
		}
		if b.ClearTo < 0 || b.HitAt < 0 || b.First < 0 {
			return fmt.Errorf("koopmancrc: bounds[%d] (weight %d): negative length", i, b.Weight)
		}
		if b.Exact && b.First < 1 {
			return fmt.Errorf("koopmancrc: bounds[%d] (weight %d): exact boundary without a first length", i, b.Weight)
		}
		hit := b.HitAt
		if b.Exact {
			hit = b.First
		}
		if hit == 0 {
			if len(b.Witness) != 0 {
				return fmt.Errorf("koopmancrc: bounds[%d] (weight %d): witness without a hit", i, b.Weight)
			}
			continue
		}
		if b.ClearTo >= hit {
			return fmt.Errorf("koopmancrc: bounds[%d] (weight %d): clear to %d contradicts hit at %d", i, b.Weight, b.ClearTo, hit)
		}
		if ev == nil {
			p, err := poly.FromKoopman(m.Width, m.Poly)
			if err != nil {
				return fmt.Errorf("koopmancrc: memo snapshot polynomial: %w", err)
			}
			ev = hamming.New(p)
		}
		if err := ev.VerifyWitness(b.Weight, hit+m.Width, b.Witness); err != nil {
			return fmt.Errorf("koopmancrc: bounds[%d] (weight %d): hit at %d: %w", i, b.Weight, hit, err)
		}
	}
	for i, w := range m.Weights {
		if w.Weight < 2 || w.Weight > 4 {
			return fmt.Errorf("koopmancrc: weights[%d]: weight %d outside 2..4", i, w.Weight)
		}
		if w.DataLen < 1 {
			return fmt.Errorf("koopmancrc: weights[%d]: data length %d below 1", i, w.DataLen)
		}
	}
	return nil
}

// mergeBoundMemo folds o into b, keeping the strictly larger body of
// knowledge on every axis. Exact knowledge is complete and wins; below
// it the clear prefix only grows and the known hit only shrinks.
func mergeBoundMemo(b, o BoundMemo) BoundMemo {
	if b.Exact {
		return b
	}
	if o.Exact {
		if b.ClearTo > o.ClearTo {
			o.ClearTo = b.ClearTo
		}
		return o
	}
	if o.ClearTo > b.ClearTo {
		b.ClearTo = o.ClearTo
	}
	if o.HitAt != 0 && (b.HitAt == 0 || o.HitAt < b.HitAt) {
		b.HitAt, b.Witness = o.HitAt, o.Witness
	}
	return b
}

// Merge unions another snapshot's knowledge into m. Both must describe
// the same polynomial and both must already be valid; the result is
// valid by construction because every fact is monotone. Probes keeps
// the larger contributor — the snapshots may share ancestry, so summing
// would double-count the same discoveries.
func (m *MemoSnapshot) Merge(o *MemoSnapshot) error {
	if m.Width != o.Width || m.Poly != o.Poly {
		return fmt.Errorf("koopmancrc: merging memo snapshots of different polynomials (%d:%#x vs %d:%#x)",
			m.Width, m.Poly, o.Width, o.Poly)
	}
	byWeight := make(map[int]BoundMemo, len(m.Bounds))
	for _, b := range m.Bounds {
		byWeight[b.Weight] = b
	}
	for _, b := range o.Bounds {
		if have, ok := byWeight[b.Weight]; ok {
			byWeight[b.Weight] = mergeBoundMemo(have, b)
		} else {
			byWeight[b.Weight] = b
		}
	}
	m.Bounds = sortedBounds(byWeight)
	counts := make(map[[2]int]uint64, len(m.Weights))
	for _, w := range m.Weights {
		counts[[2]int{w.Weight, w.DataLen}] = w.Count
	}
	for _, w := range o.Weights {
		counts[[2]int{w.Weight, w.DataLen}] = w.Count
	}
	m.Weights = sortedWeights(counts)
	if o.Probes > m.Probes {
		m.Probes = o.Probes
	}
	if o.Version > m.Version {
		m.Version = o.Version
	}
	return nil
}

// sortedBounds flattens a weight-keyed bound map into the snapshot's
// deterministic ascending-weight order.
func sortedBounds(byWeight map[int]BoundMemo) []BoundMemo {
	if len(byWeight) == 0 {
		return nil // keep empty as nil so JSON round trips preserve equality
	}
	out := make([]BoundMemo, 0, len(byWeight))
	for _, b := range byWeight {
		out = append(out, b)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Weight < out[j].Weight })
	return out
}

// sortedWeights flattens a (weight, length)-keyed count map into the
// snapshot's deterministic order.
func sortedWeights(counts map[[2]int]uint64) []WeightMemo {
	if len(counts) == 0 {
		return nil // keep empty as nil so JSON round trips preserve equality
	}
	out := make([]WeightMemo, 0, len(counts))
	for k, v := range counts {
		out = append(out, WeightMemo{Weight: k[0], DataLen: k[1], Count: v})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Weight != out[j].Weight {
			return out[i].Weight < out[j].Weight
		}
		return out[i].DataLen < out[j].DataLen
	})
	return out
}

// MemoSnapshot exports the session's memoized knowledge as a portable,
// serializable snapshot — the write half of the persistent analysis
// corpus. Like every evaluation method it waits for the session (a
// long-running scan delays the export, honouring ctx), so the snapshot
// is always a consistent point-in-time view.
func (a *Analyzer) MemoSnapshot(ctx context.Context) (*MemoSnapshot, error) {
	if a.p.IsZero() {
		return nil, fmt.Errorf("koopmancrc: analyzer has no polynomial (zero value)")
	}
	var snap *MemoSnapshot
	err := a.run(ctx, func() error {
		snap = a.memoSnapshotLocked()
		return nil
	})
	if err != nil {
		return nil, err
	}
	return snap, nil
}

// memoSnapshotLocked builds the snapshot from the live memo (sem held).
func (a *Analyzer) memoSnapshotLocked() *MemoSnapshot {
	snap := &MemoSnapshot{
		Version: MemoSnapshotVersion,
		Width:   a.p.Width(),
		Poly:    a.p.Koopman(),
		Probes:  a.restoredProbes,
	}
	if a.ev != nil {
		snap.Probes += a.ev.Stats.Probes
	}
	byWeight := make(map[int]BoundMemo, len(a.bounds))
	for w, b := range a.bounds {
		if b.ClearTo == 0 && b.HitAt == 0 && !b.Exact {
			continue // empty placeholder, no knowledge to export
		}
		m := *b
		m.Witness = copyPositions(b.Witness)
		byWeight[w] = m
	}
	snap.Bounds = sortedBounds(byWeight)
	counts := make(map[[2]int]uint64, len(a.wts))
	for k, v := range a.wts {
		counts[k] = v
	}
	snap.Weights = sortedWeights(counts)
	return snap
}

// RestoreMemos merges a snapshot's knowledge into the session — the
// read half of the persistent analysis corpus. The snapshot must
// describe the session's polynomial and pass Validate; on any error the
// session is left untouched. Restoring never discards knowledge the
// session already has: live facts and snapshot facts are unioned under
// the same monotonicity rules every query obeys, so a restore is safe
// at any point in a session's life, not just on a fresh one.
//
// Queries answered from restored knowledge perform zero engine probes,
// which is what makes a corpus-backed serving tier observably cheap:
// MemoStats.Probes stays 0 until a query actually exceeds the snapshot.
func (a *Analyzer) RestoreMemos(ctx context.Context, snap *MemoSnapshot) error {
	if err := snap.Validate(); err != nil {
		return err
	}
	if a.p.IsZero() {
		return fmt.Errorf("koopmancrc: analyzer has no polynomial (zero value)")
	}
	if snap.Width != a.p.Width() || snap.Poly != a.p.Koopman() {
		return fmt.Errorf("koopmancrc: memo snapshot is for %d:%#x, session analyzes %d:%#x",
			snap.Width, snap.Poly, a.p.Width(), a.p.Koopman())
	}
	return a.run(ctx, func() error {
		for _, m := range snap.Bounds {
			b := a.boundLocked(m.Weight)
			*b = mergeBoundMemo(*b, m)
			b.Witness = copyPositions(b.Witness)
			if b.Exact {
				b.HitAt = b.First
				b.ClearTo = max(b.ClearTo, b.First-1)
			}
		}
		for _, w := range snap.Weights {
			key := [2]int{w.Weight, w.DataLen}
			if _, ok := a.wts[key]; !ok {
				a.wts[key] = w.Count
			}
		}
		if snap.Probes > a.restoredProbes {
			a.restoredProbes = snap.Probes
		}
		return nil
	})
}
