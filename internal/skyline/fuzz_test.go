package skyline

import (
	"testing"
)

// FuzzAlgorithmsAgree drives BNL and TwoD with arbitrary byte-derived
// 2-D point sets and checks they agree and stay sound.
func FuzzAlgorithmsAgree(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{255, 1, 7, 7, 1, 255})
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) < 2 {
			return
		}
		n := len(raw) / 2
		if n > 64 {
			n = 64
		}
		pts := make([][]float64, n)
		for i := 0; i < n; i++ {
			pts[i] = []float64{float64(raw[2*i] % 32), float64(raw[2*i+1] % 32)}
		}
		bnl := BNL(pts)
		twod := TwoD(pts)
		for i := range pts {
			if bnl[i] != twod[i] {
				t.Fatalf("algorithms disagree at %d: BNL=%v TwoD=%v pts=%v", i, bnl[i], twod[i], pts)
			}
			// Soundness: survivors are not dominated.
			if bnl[i] {
				for j := range pts {
					if j != i && Dominates(pts[j], pts[i]) {
						t.Fatalf("dominated survivor %d in %v", i, pts)
					}
				}
			}
		}
	})
}

// FuzzDisjunctiveSubset checks the Option-2 survivors are always a subset
// of the full 3-D skyline with at least one survivor for non-empty input.
func FuzzDisjunctiveSubset(f *testing.F) {
	f.Add([]byte{9, 8, 7, 6, 5, 4, 3, 2, 1})
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) < 3 {
			return
		}
		n := len(raw) / 3
		if n > 48 {
			n = 48
		}
		pts := make([][]float64, n)
		for i := 0; i < n; i++ {
			pts[i] = []float64{float64(raw[3*i]), float64(raw[3*i+1]), float64(raw[3*i+2])}
		}
		full := BNL(pts)
		dis, _ := DisjunctivePairwiseMasks(pts, RCSPairs)
		any := false
		for i := range pts {
			if dis[i] {
				any = true
				if !full[i] {
					t.Fatalf("pairwise survivor %d off the full skyline: %v", i, pts)
				}
			}
		}
		if !any {
			t.Fatalf("disjunctive skyline empty for %d points", n)
		}
	})
}
