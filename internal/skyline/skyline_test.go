package skyline

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestDominates(t *testing.T) {
	cases := []struct {
		a, b []float64
		want bool
	}{
		{[]float64{1, 2}, []float64{2, 3}, true},
		{[]float64{1, 3}, []float64{2, 3}, true},
		{[]float64{1, 2}, []float64{1, 2}, false}, // duplicates do not dominate
		{[]float64{2, 1}, []float64{1, 2}, false}, // incomparable
		{[]float64{3, 3}, []float64{2, 3}, false},
		{[]float64{1}, []float64{2}, true},
	}
	for _, c := range cases {
		if got := Dominates(c.a, c.b); got != c.want {
			t.Errorf("Dominates(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestDominatesDimensionMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic on dimension mismatch")
		}
	}()
	Dominates([]float64{1}, []float64{1, 2})
}

// Table 2.2 of the paper, verbatim: the PruneGroup partition on root hub 1
// with feature vectors [R, C, S] and the expected per-skyline memberships.
var paperTable22 = struct {
	names []string
	fvs   [][]float64
	rc    []bool
	cs    []bool
	rs    []bool
	union []bool
}{
	names: []string{"123", "125", "135", "145", "156"},
	fvs: [][]float64{
		{187638, 49386, 3.9e-5},
		{122879, 52132, 1.0e-5},
		{242620, 56021, 1.0e-5},
		{241562, 55388, 6.65e-6},
		{385375, 52632, 4.5e-6},
	},
	rc:    []bool{true, true, false, false, false},
	cs:    []bool{true, true, false, false, true},
	rs:    []bool{false, true, false, true, true},
	union: []bool{true, true, false, true, true},
}

func project(fvs [][]float64, a, b int) [][]float64 {
	out := make([][]float64, len(fvs))
	for i, p := range fvs {
		out[i] = []float64{p[a], p[b]}
	}
	return out
}

func TestPaperTable22PairwiseSkylines(t *testing.T) {
	tt := paperTable22
	checks := []struct {
		name string
		a, b int
		want []bool
	}{
		{"RC", 0, 1, tt.rc},
		{"CS", 1, 2, tt.cs},
		{"RS", 0, 2, tt.rs},
	}
	for _, c := range checks {
		got := TwoD(project(tt.fvs, c.a, c.b))
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("%s skyline: JCR %s = %v, want %v", c.name, tt.names[i], got[i], c.want[i])
			}
		}
	}
}

func TestPaperTable22Disjunctive(t *testing.T) {
	tt := paperTable22
	got, _ := DisjunctivePairwiseMasks(tt.fvs, RCSPairs)
	for i := range got {
		if got[i] != tt.union[i] {
			t.Errorf("disjunctive survivor %s = %v, want %v", tt.names[i], got[i], tt.union[i])
		}
	}
}

// TestAlgorithmsAgree checks TwoD against BNL on 2-D points with many ties.
func TestAlgorithmsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(40)
		pts := make([][]float64, n)
		for i := range pts {
			// Small integer coordinates force plenty of ties.
			pts[i] = []float64{float64(rng.Intn(6)), float64(rng.Intn(6))}
		}
		bnl, twod := BNL(pts), TwoD(pts)
		for i := range pts {
			if bnl[i] != twod[i] {
				t.Fatalf("trial %d: BNL and TwoD disagree at %d\npts=%v", trial, i, pts)
			}
		}
	}
}

func TestTwoDDuplicatesSurvive(t *testing.T) {
	pts := [][]float64{{1, 1}, {1, 1}, {2, 2}, {1, 1}}
	got := TwoD(pts)
	want := []bool{true, true, false, true}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("TwoD duplicates: %v, want %v", got, want)
		}
	}
}

func TestTwoDTieCases(t *testing.T) {
	cases := []struct {
		name string
		pts  [][]float64
		want []bool
	}{
		{"equal x, different y", [][]float64{{1, 5}, {1, 3}}, []bool{false, true}},
		{"equal y, different x", [][]float64{{5, 1}, {3, 1}}, []bool{false, true}},
		{"staircase", [][]float64{{1, 4}, {2, 3}, {3, 2}, {4, 1}}, []bool{true, true, true, true}},
		{"single", [][]float64{{7, 7}}, []bool{true}},
		{"dominated chain", [][]float64{{1, 1}, {2, 2}, {3, 3}}, []bool{true, false, false}},
	}
	for _, c := range cases {
		got := TwoD(c.pts)
		for i := range c.want {
			if got[i] != c.want[i] {
				t.Errorf("%s: TwoD = %v, want %v", c.name, got, c.want)
			}
		}
	}
}

func TestTwoDRequires2D(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic for 3-D input")
		}
	}()
	TwoD([][]float64{{1, 2, 3}})
}

func TestKDominates(t *testing.T) {
	a := []float64{1, 5, 2}
	b := []float64{2, 3, 4}
	// a is better in dims 0 and 2, worse in dim 1.
	if !KDominates(a, b, 2) {
		t.Error("a should 2-dominate b")
	}
	if KDominates(a, b, 3) {
		t.Error("a should not 3-dominate b")
	}
	// 3-dominance must coincide with ordinary dominance.
	c := []float64{1, 2, 3}
	d := []float64{2, 3, 4}
	if KDominates(c, d, 3) != Dominates(c, d) {
		t.Error("full-k dominance differs from Dominates")
	}
	if KDominates(c, c, 3) {
		t.Error("point k-dominates itself")
	}
}

func TestKDominantStrongerThanSkyline(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 100; trial++ {
		n := 2 + rng.Intn(30)
		pts := make([][]float64, n)
		for i := range pts {
			pts[i] = []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		}
		full := BNL(pts)
		strong := KDominant(pts, 2)
		for i := range pts {
			if strong[i] && !full[i] {
				t.Fatalf("k-dominant point %d not on the ordinary skyline", i)
			}
		}
	}
}

func TestDisjunctiveSupersetOfFullSkyline(t *testing.T) {
	// Every point on the full 3-D skyline must survive the disjunctive
	// pairwise function — this is why Option 2 prunes more than Option 1
	// never holds; it's the reverse: Option 1 (full RCS skyline) retains
	// more. Verify the superset relation empirically.
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(40)
		pts := make([][]float64, n)
		for i := range pts {
			pts[i] = []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		}
		full := BNL(pts)
		dis, _ := DisjunctivePairwiseMasks(pts, RCSPairs)
		fullCount, disCount := 0, 0
		for i := range pts {
			if full[i] {
				fullCount++
			}
			if dis[i] {
				disCount++
			}
			if dis[i] && !full[i] {
				t.Fatalf("pairwise survivor %d not on the full skyline: %v", i, pts[i])
			}
		}
		if disCount > fullCount {
			t.Fatalf("disjunctive kept %d > full skyline %d", disCount, fullCount)
		}
	}
}

// Property: the skyline is sound (no survivor is dominated) and complete
// (every non-survivor is dominated by some survivor).
func TestQuickSkylineSoundComplete(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) < 2 {
			return true
		}
		n := len(raw) / 2
		pts := make([][]float64, n)
		for i := 0; i < n; i++ {
			pts[i] = []float64{float64(raw[2*i] % 16), float64(raw[2*i+1] % 16)}
		}
		mask := BNL(pts)
		for i := range pts {
			if mask[i] {
				for j := range pts {
					if j != i && Dominates(pts[j], pts[i]) {
						return false // unsound
					}
				}
			} else {
				dominated := false
				for j := range pts {
					if mask[j] && Dominates(pts[j], pts[i]) {
						dominated = true
						break
					}
				}
				if !dominated {
					return false // incomplete
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: skylines are idempotent — re-running on the survivors keeps all
// of them.
func TestQuickSkylineIdempotent(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) < 3 {
			return true
		}
		n := len(raw) / 3
		pts := make([][]float64, n)
		for i := 0; i < n; i++ {
			pts[i] = []float64{float64(raw[3*i]), float64(raw[3*i+1]), float64(raw[3*i+2])}
		}
		mask := BNL(pts)
		var surv [][]float64
		for i := range pts {
			if mask[i] {
				surv = append(surv, pts[i])
			}
		}
		again := BNL(surv)
		for _, ok := range again {
			if !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestScratchReuse runs one Scratch over point sets that shrink and grow, with
// many ties, and requires every mask it returns to equal BNL's over the
// explicit 2-D projections, and the survivors their union: a reused buffer
// must carry nothing over from an earlier, larger call.
func TestScratchReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var s Scratch
	for trial, n := range []int{40, 3, 0, 25, 1, 60, 7, 60, 2} {
		pts := make([][]float64, n)
		for i := range pts {
			pts[i] = []float64{float64(rng.Intn(5)), float64(rng.Intn(5)), float64(rng.Intn(5))}
		}
		out, masks := s.DisjunctivePairwiseMasks(pts, RCSPairs)
		if len(out) != n || len(masks) != len(RCSPairs) {
			t.Fatalf("trial %d: %d survivors and %d masks for %d points", trial, len(out), len(masks), n)
		}
		want := make([]bool, n)
		for pi, pr := range RCSPairs {
			proj := make([][]float64, n)
			for i, p := range pts {
				proj[i] = []float64{p[pr[0]], p[pr[1]]}
			}
			ref := BNL(proj)
			for i := range ref {
				if masks[pi][i] != ref[i] {
					t.Fatalf("trial %d: %s mask[%d] = %v, BNL says %v", trial, RCSNames[pi], i, masks[pi][i], ref[i])
				}
				want[i] = want[i] || ref[i]
			}
		}
		if !slices.Equal(out, want) {
			t.Fatalf("trial %d: survivors = %v, want %v", trial, out, want)
		}
	}
}
