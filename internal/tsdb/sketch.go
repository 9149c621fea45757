// Sketch tier: bounded-memory summaries for the high-cardinality series
// the ingest spine produces (one per source host, one per destination
// device — cardinalities the exact three-ring tier must not pay for).
//
// Two sketches, both deterministic and mergeable:
//
//   - QuantileSketch is an MRL/KLL-style compactor ladder. Values enter a
//     weight-1 buffer; when a level fills, it is sorted and every other
//     element survives into the next level with doubled weight. Offsets
//     alternate per level, and the sketch tracks the worst-case rank
//     error those compactions can have introduced, so every quantile
//     answer ships with an honest error bound. Each level's buffer is
//     allocated once, at the k items it can hold, and the ladder height
//     is sized from the per-series byte budget — a sketch never grows.
//
//   - CountMin is the classic conservative-overestimate counter array
//     (depth rows × width counters, double hashing). Estimates are never
//     below the true count and overshoot by at most ErrorBound()×N.
//
// Nothing here uses randomness: identical input streams produce identical
// sketches, which keeps the simulation's bit-reproducibility contract.
package tsdb

import "sort"

// sketchK is the compactor buffer width (items per level). The error
// bound scales as levels/k; 256 keeps worst-case rank error under ~3 %
// for a week of 20 s windows while costing 3 KiB per level.
const sketchK = 256

// QuantileSketch is a deterministic mergeable quantile summary.
type QuantileSketch struct {
	k      int
	levels []sketchLevel
	max    int // maximum ladder height (budget-enforced)
	count  uint64
	// errHalf accumulates worst-case rank error in half-units: each
	// compaction of a buffer whose items carry weight w can shift any
	// rank by at most w/2 (alternating offsets), so it adds w here and
	// the bound divides by two.
	errHalf uint64
}

type sketchLevel struct {
	w     uint64 // weight each retained item represents
	items []float64
	flip  bool // alternating compaction offset
}

// NewQuantileSketch builds a sketch with buffer width k and at most
// maxLevels+1 levels. k < 32 is clamped to 32, maxLevels < 2 to 2.
func NewQuantileSketch(k, maxLevels int) *QuantileSketch {
	if k < 32 {
		k = 32
	}
	if maxLevels < 2 {
		maxLevels = 2
	}
	return &QuantileSketch{k: k, max: maxLevels}
}

// mergeCap bounds a level during Merge: up to k-1 resident items plus
// up to (k+1)/2 arriving survivors before it is itself compacted. The
// tier's byte budget (Config.sketchLevels) is sized per level at this
// bound.
func (s *QuantileSketch) mergeCap() int { return s.k + (s.k+1)/2 }

// level returns level i, creating levels up to it. Levels are allocated
// at k items, the most Add ever leaves in one when k is a power of two
// (sketchK is): level 0 compacts on reaching k, and an upper level fills
// in equal chunks of survivors, each dividing k, until it reaches k.
func (s *QuantileSketch) level(i int) *sketchLevel {
	for len(s.levels) <= i {
		s.levels = append(s.levels, sketchLevel{
			w:     1 << uint(len(s.levels)),
			items: make([]float64, 0, s.k),
		})
	}
	return &s.levels[i]
}

// Count reports how many values have been added (including merged ones).
func (s *QuantileSketch) Count() uint64 { return s.count }

// Add inserts one value.
func (s *QuantileSketch) Add(v float64) {
	lv := s.level(0)
	lv.items = append(lv.items, v)
	s.count++
	s.compactFrom(0)
}

// compactFrom restores the ladder invariant (every level shorter than k)
// starting at level i and cascading upward.
func (s *QuantileSketch) compactFrom(i int) {
	for ; i < len(s.levels); i++ {
		if len(s.levels[i].items) < s.k {
			continue
		}
		s.compact(i)
	}
}

// compact halves level i into the level above (or in place at the top of
// a budget-capped ladder, doubling its weight).
func (s *QuantileSketch) compact(i int) {
	lv := &s.levels[i]
	sort.Float64s(lv.items)
	off := 0
	if lv.flip {
		off = 1
	}
	lv.flip = !lv.flip
	survivors := lv.items[:0:0]
	for j := off; j < len(lv.items); j += 2 {
		survivors = append(survivors, lv.items[j])
	}
	s.errHalf += lv.w
	w := lv.w * 2
	lv.items = lv.items[:0]

	if i+1 > s.max {
		// Ladder at its byte budget: fold the survivors back into the
		// top level with doubled weight.
		lv.w = w
		lv.items = append(lv.items, survivors...)
		return
	}
	up := s.level(i + 1)
	// A capped top level may have doubled past 2*w; halve the survivors
	// until their weight matches (each halving is another compaction).
	for w < up.w {
		sort.Float64s(survivors)
		half := survivors[:0]
		for j := 0; j < len(survivors); j += 2 {
			half = append(half, survivors[j])
		}
		s.errHalf += w
		survivors = half
		w *= 2
	}
	up.items = append(up.items, survivors...)
}

// Merge folds o into s. Both sketches remain valid; o is not modified.
func (s *QuantileSketch) Merge(o *QuantileSketch) {
	for i := range o.levels {
		src := &o.levels[i]
		if len(src.items) == 0 {
			continue
		}
		// Find (or create) the level with matching weight.
		dst := -1
		for j := range s.levels {
			if s.levels[j].w == src.w {
				dst = j
				break
			}
		}
		if dst < 0 {
			dst = i
			if dst > s.max {
				dst = s.max
			}
			lv := s.level(dst)
			if lv.w != src.w {
				// Weight mismatch against a capped ladder: fold at the
				// existing weight and charge the difference as rank error.
				d := lv.w - src.w
				if src.w > lv.w {
					d = src.w - lv.w
				}
				s.errHalf += d * uint64(len(src.items))
			}
		}
		if lv := &s.levels[dst]; cap(lv.items) < s.mergeCap() {
			// Folding may fill the level past k: step it to the budget.
			lv.items = append(make([]float64, 0, s.mergeCap()), lv.items...)
		}
		for _, v := range src.items {
			if len(s.levels[dst].items) >= s.mergeCap()-1 {
				s.compact(dst)
			}
			s.levels[dst].items = append(s.levels[dst].items, v)
		}
		s.compactFrom(dst)
	}
	s.count += o.count
	s.errHalf += o.errHalf
}

// Quantile answers the q-quantile (0 ≤ q ≤ 1). ok is false on an empty
// sketch.
func (s *QuantileSketch) Quantile(q float64) (float64, bool) {
	if s.count == 0 {
		return 0, false
	}
	type wv struct {
		v float64
		w uint64
	}
	var all []wv
	var total uint64
	for i := range s.levels {
		for _, v := range s.levels[i].items {
			all = append(all, wv{v, s.levels[i].w})
			total += s.levels[i].w
		}
	}
	if len(all) == 0 {
		return 0, false
	}
	sort.Slice(all, func(a, b int) bool { return all[a].v < all[b].v })
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := uint64(q * float64(total))
	var cum uint64
	for _, e := range all {
		cum += e.w
		if cum > target {
			return e.v, true
		}
	}
	return all[len(all)-1].v, true
}

// ErrorBound reports the worst-case rank error of any Quantile answer as
// a fraction of Count: the returned value v satisfies
// rank(v) ∈ [q·n − ε·n − 1, q·n + ε·n + 1]. Zero until the first
// compaction (the sketch is still exact).
func (s *QuantileSketch) ErrorBound() float64 {
	if s.count == 0 {
		return 0
	}
	return float64(s.errHalf) / 2 / float64(s.count)
}

// Bytes reports the sketch's allocation footprint. Under Add each level
// is allocated once at k items — inside the k+(k+1)/2 per-level budget
// the tier sizes ladders by — and, for a power-of-two k, never grows.
// Merge steps a level it folds into up to that budget.
func (s *QuantileSketch) Bytes() int {
	b := 64 // struct header
	for i := range s.levels {
		b += 40 + 8*cap(s.levels[i].items)
	}
	return b
}

// Clone deep-copies the sketch — identical quantile answers, error
// bound and byte footprint (level capacities are preserved so Bytes
// agrees with the original).
func (s *QuantileSketch) Clone() *QuantileSketch {
	out := *s
	out.levels = make([]sketchLevel, len(s.levels))
	for i, lv := range s.levels {
		cp := lv
		cp.items = make([]float64, len(lv.items), cap(lv.items))
		copy(cp.items, lv.items)
		out.levels[i] = cp
	}
	return &out
}

// CountMin is a conservative per-key counter sketch.
type CountMin struct {
	depth, width int
	rows         [][]uint64
	n            uint64
}

// NewCountMin builds a depth×width sketch. width < 16 clamps to 16,
// depth < 2 to 2.
func NewCountMin(depth, width int) *CountMin {
	if depth < 2 {
		depth = 2
	}
	if width < 16 {
		width = 16
	}
	rows := make([][]uint64, depth)
	for i := range rows {
		rows[i] = make([]uint64, width)
	}
	return &CountMin{depth: depth, width: width, rows: rows}
}

// fnv64 hashes without allocating.
func fnv64(key string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return h
}

// indexes derives the per-row slots by double hashing.
func (c *CountMin) index(row int, h1, h2 uint64) int {
	return int((h1 + uint64(row)*h2) % uint64(c.width))
}

func splitHash(key string) (uint64, uint64) {
	h := fnv64(key)
	h2 := h>>33 | 1 // odd, so rows differ
	return h, h2
}

// Add counts key n more times.
func (c *CountMin) Add(key string, n uint64) {
	h1, h2 := splitHash(key)
	for r := 0; r < c.depth; r++ {
		c.rows[r][c.index(r, h1, h2)] += n
	}
	c.n += n
}

// Estimate reports the key's count: never below the truth, above it by
// at most ErrorBound()×Total with high probability.
func (c *CountMin) Estimate(key string) uint64 {
	h1, h2 := splitHash(key)
	min := ^uint64(0)
	for r := 0; r < c.depth; r++ {
		if v := c.rows[r][c.index(r, h1, h2)]; v < min {
			min = v
		}
	}
	return min
}

// Total reports the sum of all Adds.
func (c *CountMin) Total() uint64 { return c.n }

// ErrorBound is the overestimate factor: Estimate ≤ true + bound×Total
// (per row; taking the min over depth rows makes exceeding it
// exponentially unlikely).
func (c *CountMin) ErrorBound() float64 { return 1 / float64(c.width) }

// Merge folds o (same dimensions) into c; mismatched shapes are ignored.
func (c *CountMin) Merge(o *CountMin) {
	if o == nil || o.depth != c.depth || o.width != c.width {
		return
	}
	for r := range c.rows {
		for i := range c.rows[r] {
			c.rows[r][i] += o.rows[r][i]
		}
	}
	c.n += o.n
}

// Bytes reports the counter array footprint.
func (c *CountMin) Bytes() int { return 48 + 8*c.depth*c.width }

// Clone deep-copies the counter array.
func (c *CountMin) Clone() *CountMin {
	out := &CountMin{depth: c.depth, width: c.width, n: c.n}
	out.rows = make([][]uint64, c.depth)
	for i, row := range c.rows {
		out.rows[i] = append([]uint64(nil), row...)
	}
	return out
}
