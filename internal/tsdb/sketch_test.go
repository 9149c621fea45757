package tsdb

import (
	"sort"
	"testing"

	"rpingmesh/internal/sim"
)

// lcg is a tiny deterministic generator so the property tests never
// depend on math/rand seeding or the global source.
type lcg uint64

func (g *lcg) next() float64 {
	*g = *g*6364136223846793005 + 1442695040888963407
	return float64(uint64(*g)>>11) / float64(1<<53)
}

// rankRange returns the rank interval a value v occupies in the sorted
// reference data: [count of elements < v, count of elements ≤ v]. A run
// of duplicates makes this an interval, not a point.
func rankRange(sorted []float64, v float64) (lo, hi float64) {
	l := sort.SearchFloat64s(sorted, v)
	h := sort.Search(len(sorted), func(i int) bool { return sorted[i] > v })
	return float64(l), float64(h)
}

// checkQuantiles asserts every sketch answer lands within the sketch's
// own advertised rank-error bound of the true quantile.
func checkQuantiles(t *testing.T, name string, qs *QuantileSketch, data []float64) {
	t.Helper()
	sorted := append([]float64(nil), data...)
	sort.Float64s(sorted)
	n := len(sorted)
	eps := qs.ErrorBound()
	// +1 covers the discretization slack documented on ErrorBound, and
	// SearchFloat64s can land one past a run of duplicates.
	slack := eps*float64(n) + 2
	for _, q := range []float64{0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1} {
		v, ok := qs.Quantile(q)
		if !ok {
			t.Fatalf("%s: Quantile(%v) not ok with %d values", name, q, n)
		}
		target := q * float64(n)
		lo, hi := rankRange(sorted, v)
		if target < lo-slack || target > hi+slack {
			t.Errorf("%s: q=%v -> %v has rank [%v,%v], want %v ± %v (eps=%v)",
				name, q, v, lo, hi, target, slack, eps)
		}
	}
	if eps < 0 || eps > 0.25 {
		t.Errorf("%s: error bound %v outside sane range", name, eps)
	}
}

// TestQuantileSketchErrorBound is the sketch-vs-exact property test: for
// several input shapes, every quantile answer must be within the
// sketch's self-reported error bound of the true rank.
func TestQuantileSketchErrorBound(t *testing.T) {
	const n = 20000
	shapes := map[string]func(i int, g *lcg) float64{
		"uniform":  func(i int, g *lcg) float64 { return g.next() },
		"sorted":   func(i int, g *lcg) float64 { return float64(i) },
		"reversed": func(i int, g *lcg) float64 { return float64(n - i) },
		"constant": func(i int, g *lcg) float64 { return 42 },
		"heavytail": func(i int, g *lcg) float64 {
			u := g.next()
			return 1 / (1 - 0.999*u) // Pareto-ish spike
		},
	}
	for name, gen := range shapes {
		t.Run(name, func(t *testing.T) {
			qs := NewQuantileSketch(sketchK, 8)
			g := lcg(1)
			data := make([]float64, n)
			for i := range data {
				data[i] = gen(i, &g)
				qs.Add(data[i])
			}
			if qs.Count() != n {
				t.Fatalf("count %d, want %d", qs.Count(), n)
			}
			checkQuantiles(t, name, qs, data)
		})
	}
}

// TestQuantileSketchMerge merges two independently built sketches and
// checks the combined answers against the combined data, still within
// the merged sketch's own bound.
func TestQuantileSketchMerge(t *testing.T) {
	a := NewQuantileSketch(sketchK, 6)
	b := NewQuantileSketch(sketchK, 6)
	g := lcg(7)
	var data []float64
	for i := 0; i < 9000; i++ {
		v := g.next() * 100
		a.Add(v)
		data = append(data, v)
	}
	for i := 0; i < 4000; i++ {
		v := 100 + g.next()*100 // disjoint range stresses interleaving
		b.Add(v)
		data = append(data, v)
	}
	a.Merge(b)
	if a.Count() != uint64(len(data)) {
		t.Fatalf("merged count %d, want %d", a.Count(), len(data))
	}
	checkQuantiles(t, "merge", a, data)
}

// TestQuantileSketchBytesBounded: the footprint never grows past the
// fixed ladder allocation regardless of how many values stream in.
func TestQuantileSketchBytesBounded(t *testing.T) {
	qs := NewQuantileSketch(sketchK, 5)
	g := lcg(3)
	var maxBytes int
	for i := 0; i < 200000; i++ {
		qs.Add(g.next())
		if b := qs.Bytes(); b > maxBytes {
			maxBytes = b
		}
	}
	// 6 levels (0..max) at the fixed per-level cap, plus the header.
	cap := 64 + 6*(40+8*(sketchK+(sketchK+1)/2))
	if maxBytes > cap {
		t.Fatalf("sketch grew to %d bytes, budget %d", maxBytes, cap)
	}
	if qs.Bytes() != maxBytes {
		// Bytes must be monotone-stable: buffers are never released.
		t.Fatalf("Bytes shrank: %d after peak %d", qs.Bytes(), maxBytes)
	}
}

// TestQuantileSketchLevelsSizedToContents: under Add, every level keeps
// the k-item allocation it was created with — for the tier's
// power-of-two k, chunks of survivors fill a level exactly to k — and
// the ladder still reaches the budget's height.
func TestQuantileSketchLevelsSizedToContents(t *testing.T) {
	for _, maxLevels := range []int{2, 5} {
		qs := NewQuantileSketch(sketchK, maxLevels)
		g := lcg(uint64(maxLevels))
		for i := 0; i < 100000; i++ {
			qs.Add(g.next())
			for j := range qs.levels {
				if c := cap(qs.levels[j].items); c != sketchK {
					t.Fatalf("max=%d: level %d grew to cap %d, allocated %d", maxLevels, j, c, sketchK)
				}
			}
		}
		if len(qs.levels) != maxLevels+1 {
			t.Fatalf("ladder height %d, want %d", len(qs.levels), maxLevels+1)
		}
	}
}

// TestSketchDeterministic pins bit-reproducibility: identical streams
// produce identical quantile answers, error bounds, and footprints. The
// determinism make target runs this at GOMAXPROCS 1 and 8.
func TestSketchDeterministic(t *testing.T) {
	build := func() *QuantileSketch {
		qs := NewQuantileSketch(sketchK, 6)
		g := lcg(11)
		for i := 0; i < 50000; i++ {
			qs.Add(g.next() * 1e6)
		}
		return qs
	}
	a, b := build(), build()
	if a.Count() != b.Count() || a.ErrorBound() != b.ErrorBound() || a.Bytes() != b.Bytes() {
		t.Fatalf("sketch metadata diverged: (%d,%v,%d) vs (%d,%v,%d)",
			a.Count(), a.ErrorBound(), a.Bytes(), b.Count(), b.ErrorBound(), b.Bytes())
	}
	for q := 0.0; q <= 1.0; q += 0.05 {
		av, aok := a.Quantile(q)
		bv, bok := b.Quantile(q)
		if av != bv || aok != bok {
			t.Fatalf("Quantile(%v) diverged: %v vs %v", q, av, bv)
		}
	}

	cm1, cm2 := NewCountMin(4, 1024), NewCountMin(4, 1024)
	for _, c := range []*CountMin{cm1, cm2} {
		for i := 0; i < 1000; i++ {
			c.Add(string(rune('a'+i%26)), uint64(i))
		}
	}
	for i := 0; i < 26; i++ {
		k := string(rune('a' + i))
		if cm1.Estimate(k) != cm2.Estimate(k) {
			t.Fatalf("CountMin diverged on %q", k)
		}
	}
}

// TestCountMinProperties: estimates never undercount, and overshoot by
// at most ErrorBound×Total for keys with distinct hash slots.
func TestCountMinProperties(t *testing.T) {
	cm := NewCountMin(4, 512)
	truth := map[string]uint64{}
	g := lcg(5)
	keys := []string{"tor-0", "tor-1", "spine-0", "spine-1", "agg-0", "agg-1", "leaf-9"}
	for i := 0; i < 50000; i++ {
		k := keys[int(g.next()*float64(len(keys)))%len(keys)]
		cm.Add(k, 1)
		truth[k]++
	}
	if cm.Total() != 50000 {
		t.Fatalf("total %d, want 50000", cm.Total())
	}
	bound := uint64(cm.ErrorBound()*float64(cm.Total())) + 1
	for k, want := range truth {
		got := cm.Estimate(k)
		if got < want {
			t.Errorf("%s: estimate %d below true count %d", k, got, want)
		}
		if got > want+bound {
			t.Errorf("%s: estimate %d exceeds %d+%d", k, got, want, bound)
		}
	}
	// Merge doubles every estimate.
	cm2 := NewCountMin(4, 512)
	cm2.Merge(cm)
	cm2.Merge(cm)
	for k, want := range truth {
		if got := cm2.Estimate(k); got < 2*want {
			t.Errorf("merged %s: %d below 2×%d", k, got, want)
		}
	}
}

// TestSketchSeriesBudget: tsdb Stats must uphold the documented
// invariant SketchBytes ≤ SketchSeries × SketchBudgetPerSeries even
// under a flood of high-cardinality appends.
func TestSketchSeriesBudget(t *testing.T) {
	db := Open(Config{SketchBytesPerSeries: 16 << 10, SketchWindowBuckets: 32})
	g := lcg(9)
	for s := 0; s < 40; s++ {
		name := "ingest.rtt.host-" + string(rune('a'+s%26)) + string(rune('0'+s/26))
		for i := 0; i < 5000; i++ {
			db.AppendSketch(name, sim.Time(i)*sim.Second, g.next()*1e5)
		}
	}
	st := db.Stats()
	if st.SketchSeries != 40 {
		t.Fatalf("SketchSeries = %d, want 40", st.SketchSeries)
	}
	if st.SketchBudgetPerSeries != 16<<10 {
		t.Fatalf("budget = %d, want %d", st.SketchBudgetPerSeries, 16<<10)
	}
	if st.SketchBytes > st.SketchSeries*st.SketchBudgetPerSeries {
		t.Fatalf("budget invariant violated: %d bytes > %d series × %d",
			st.SketchBytes, st.SketchSeries, st.SketchBudgetPerSeries)
	}
	if st.SketchMaxErrBound <= 0 || st.SketchMaxErrBound > 0.25 {
		t.Fatalf("SketchMaxErrBound = %v outside sane range", st.SketchMaxErrBound)
	}
}
