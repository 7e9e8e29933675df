package bits

import "testing"

// FuzzIterMatchesEach checks that the allocation-free Iter cursor visits
// exactly the members Each visits, in the same increasing order, for
// arbitrary two-word sets — including sets whose members straddle the 63/64
// word boundary and the top bit 127.
func FuzzIterMatchesEach(f *testing.F) {
	f.Add(uint64(0), uint64(0))
	f.Add(uint64(1), uint64(0))
	f.Add(uint64(0b1011), uint64(0))
	f.Add(^uint64(0), ^uint64(0))
	f.Add(uint64(1)<<63, uint64(0))
	f.Add(uint64(1)<<63, uint64(1)) // adjacent members 63 and 64
	f.Add(uint64(0), uint64(1)<<63) // only bit 127
	f.Fuzz(func(t *testing.T, raw0, raw1 uint64) {
		s := FromWords(raw0, raw1)
		var want []int
		s.Each(func(i int) { want = append(want, i) })

		var got []int
		for it := s.Iter(); ; {
			i, ok := it.Next()
			if !ok {
				break
			}
			got = append(got, i)
		}
		if len(got) != len(want) {
			t.Fatalf("Iter over %v yielded %d members, Each yielded %d", s, len(got), len(want))
		}
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("Iter over %v yielded %v, Each yielded %v", s, got, want)
			}
		}
	})
}

func TestIterExhausted(t *testing.T) {
	var it Iter
	if i, ok := it.Next(); ok || i != -1 {
		t.Fatalf("zero Iter.Next() = %d, %v; want -1, false", i, ok)
	}
	if i, ok := it.Next(); ok || i != -1 {
		t.Fatalf("repeated Next() on exhausted Iter = %d, %v; want -1, false", i, ok)
	}
}
