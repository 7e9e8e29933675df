package core

import (
	"fmt"
	"math"
	"testing"

	"sdpopt/internal/dp"
	"sdpopt/internal/plan"
	"sdpopt/internal/workload"
)

// The adjacency-indexed enumerator (memo.Walker over per-relation bitmaps)
// must be observationally identical to the retained naive reference loop:
// same chosen plan to the cost bit, same PlansCosted, same memo shape, and
// — for SDP — a byte-identical pruning trace. These tests are the
// machine-checked form of the order-preservation argument in DESIGN.md.

type equivEntry struct {
	name string
	spec workload.Spec
}

// equivCorpus mirrors the dp determinism corpus (every topology the
// generator offers, plus ordered and filtered variants) but with one
// instance per entry so the naive×indexed pairs stay quick under -race.
func equivCorpus() []equivEntry {
	cat := workload.PaperSchema()
	var out []equivEntry
	for _, n := range []int{5, 10, 15} {
		out = append(out, equivEntry{
			name: fmt.Sprintf("chain-%d", n),
			spec: workload.Spec{Cat: cat, Topology: workload.Chain, NumRelations: n, Seed: int64(n)},
		})
	}
	for _, n := range []int{5, 10} {
		out = append(out, equivEntry{
			name: fmt.Sprintf("cycle-%d", n),
			spec: workload.Spec{Cat: cat, Topology: workload.Cycle, NumRelations: n, Seed: int64(100 + n)},
		})
	}
	for _, n := range []int{5, 8, 10} {
		out = append(out, equivEntry{
			name: fmt.Sprintf("star-%d", n),
			spec: workload.Spec{Cat: cat, Topology: workload.Star, NumRelations: n, Seed: int64(200 + n)},
		})
	}
	out = append(out,
		equivEntry{
			name: "starchain-15",
			spec: workload.Spec{Cat: cat, Topology: workload.StarChain, NumRelations: 15, Seed: 315},
		},
		equivEntry{
			name: "chain-8-ordered",
			spec: workload.Spec{Cat: cat, Topology: workload.Chain, NumRelations: 8, Ordered: true, Seed: 408},
		},
		equivEntry{
			name: "cycle-7-filtered",
			spec: workload.Spec{Cat: cat, Topology: workload.Cycle, NumRelations: 7, FilterFraction: 0.5, Seed: 507},
		},
	)
	return out
}

func equivRelName(i int) string { return fmt.Sprintf("R%d", i) }

// assertSameResult enforces bit-for-bit identity between the naive oracle
// and a candidate engine: exact cost bits, plan shape, plans costed, memo
// shape, and the number of connected pairs — a property of the search
// space, so every enumeration strategy must agree on it. PairsConsidered
// is deliberately excluded: it is the one statistic that measures the
// strategy rather than the search, checked separately as an inequality.
func assertSameResult(t *testing.T, label string, pRef *plan.Plan, stRef dp.Stats, pGot *plan.Plan, stGot dp.Stats) {
	t.Helper()
	if math.Float64bits(pRef.Cost) != math.Float64bits(pGot.Cost) {
		t.Errorf("%s: cost %v (naive) != %v (got)", label, pRef.Cost, pGot.Cost)
	}
	if plan.Compare(pRef, pGot) != 0 {
		t.Errorf("%s: plan shape diverged:\nnaive: %s\ngot:   %s",
			label, pRef.Shape(equivRelName), pGot.Shape(equivRelName))
	}
	if stRef.PlansCosted != stGot.PlansCosted {
		t.Errorf("%s: PlansCosted %d (naive) != %d (got)", label, stRef.PlansCosted, stGot.PlansCosted)
	}
	if stRef.Memo.ClassesCreated != stGot.Memo.ClassesCreated {
		t.Errorf("%s: ClassesCreated %d (naive) != %d (got)", label, stRef.Memo.ClassesCreated, stGot.Memo.ClassesCreated)
	}
	if stRef.Memo.PathsRetained != stGot.Memo.PathsRetained {
		t.Errorf("%s: PathsRetained %d (naive) != %d (got)", label, stRef.Memo.PathsRetained, stGot.Memo.PathsRetained)
	}
	if stRef.Memo.SimBytes != stGot.Memo.SimBytes {
		t.Errorf("%s: SimBytes %d (naive) != %d (got)", label, stRef.Memo.SimBytes, stGot.Memo.SimBytes)
	}
	if stRef.PairsConnected != stGot.PairsConnected {
		t.Errorf("%s: PairsConnected %d (naive) != %d (got)", label, stRef.PairsConnected, stGot.PairsConnected)
	}
}

// TestDPEnumerationEquivalence runs exhaustive DP two ways — the naive
// generate-and-filter reference loop and the adjacency-indexed walk — and
// requires identical results. It also pins the point of the walk: it must
// consider strictly fewer candidate pairs than the naive scan on every
// corpus entry (the filter was doing real work), and exactly the connected
// ones, its structural no-filtering guarantee.
func TestDPEnumerationEquivalence(t *testing.T) {
	for _, ce := range equivCorpus() {
		ce := ce
		t.Run(ce.name, func(t *testing.T) {
			t.Parallel()
			q, err := workload.One(ce.spec)
			if err != nil {
				t.Fatalf("One: %v", err)
			}
			pNaive, stNaive, err := dp.Optimize(q, dp.Options{Enum: dp.EnumNaive})
			if err != nil {
				t.Fatalf("naive: %v", err)
			}
			pIdx, stIdx, err := dp.Optimize(q, dp.Options{Enum: dp.EnumIndexed})
			if err != nil {
				t.Fatalf("indexed: %v", err)
			}
			assertSameResult(t, "indexed", pNaive, stNaive, pIdx, stIdx)
			if stIdx.PairsConsidered > stNaive.PairsConsidered {
				t.Errorf("indexed considered %d pairs, naive only %d — index generated spurious candidates",
					stIdx.PairsConsidered, stNaive.PairsConsidered)
			}
			if q.NumRelations() > 2 && stIdx.PairsConsidered >= stNaive.PairsConsidered {
				t.Errorf("indexed considered %d pairs, not fewer than naive's %d — index is not filtering",
					stIdx.PairsConsidered, stNaive.PairsConsidered)
			}
			if stIdx.PairsConsidered != stIdx.PairsConnected {
				t.Errorf("indexed considered %d pairs but connected %d — the walk gathered a pair it had to filter",
					stIdx.PairsConsidered, stIdx.PairsConnected)
			}
		})
	}
}

// TestDPccpEquivalenceWidths sweeps the indexed walk ≡ naive DPsize
// across every generator topology at widths 2–15 (cycle and star-chain start
// at their structural minimum of 3): identical optimal plan to the cost bit,
// identical memo shape, identical connected-pair count, and a walk that
// considers only connected pairs — DPccp's work, the csg-cmp pairs and
// nothing else (Moerkotte & Neumann), which is what the name refers to. Two deliberate caps keep the sweep inside
// test time — at every capped width the work cut is join costing, never
// enumeration coverage: the naive scan's per-level cross products are
// quadratic in the class population, so above width 13 on the dense hub
// topologies only the walk's considered == connected guarantee is checked;
// and the clique sweep stops at 9 because an exhaustive clique optimization
// joins Θ(3ⁿ) pairs in either enumerator — the joins, not the enumeration,
// are the cost.
func TestDPccpEquivalenceWidths(t *testing.T) {
	cat := workload.PaperSchema()
	sweeps := []struct {
		name     string
		topo     workload.Topology
		min      int
		max      int
		naiveMax int
	}{
		{"chain", workload.Chain, 2, 15, 15},
		{"cycle", workload.Cycle, 3, 15, 15},
		{"star", workload.Star, 2, 15, 13},
		{"starchain", workload.StarChain, 3, 15, 13},
		{"clique", workload.Clique, 2, 9, 9},
	}
	for _, sw := range sweeps {
		for n := sw.min; n <= sw.max; n++ {
			sw, n := sw, n
			t.Run(fmt.Sprintf("%s-%d", sw.name, n), func(t *testing.T) {
				t.Parallel()
				q, err := workload.One(workload.Spec{
					Cat: cat, Topology: sw.topo, NumRelations: n, Seed: int64(1000*int64(sw.topo) + int64(n)),
				})
				if err != nil {
					t.Fatalf("One: %v", err)
				}
				pIdx, stIdx, err := dp.Optimize(q, dp.Options{})
				if err != nil {
					t.Fatalf("indexed: %v", err)
				}
				if stIdx.PairsConsidered != stIdx.PairsConnected {
					t.Errorf("indexed considered %d != connected %d", stIdx.PairsConsidered, stIdx.PairsConnected)
				}
				if n <= sw.naiveMax {
					pNaive, stNaive, err := dp.Optimize(q, dp.Options{Enum: dp.EnumNaive})
					if err != nil {
						t.Fatalf("naive: %v", err)
					}
					assertSameResult(t, "indexed-vs-naive", pNaive, stNaive, pIdx, stIdx)
				}
			})
		}
	}
}

// TestDPccpStructuralInvariant is the CI enumeration-regression guard's
// named check: over the full smoke corpus, the default engine — the indexed
// walk — must report pairs_considered == pairs_connected, DPccp's structural
// guarantee, for plain DP and for SDP's pruned levels alike. More considered
// than connected means the walk gathered a candidate it had to reject, which
// its bitmap masks by construction never do.
func TestDPccpStructuralInvariant(t *testing.T) {
	for _, ce := range equivCorpus() {
		q, err := workload.One(ce.spec)
		if err != nil {
			t.Fatalf("%s: One: %v", ce.name, err)
		}
		_, st, err := dp.Optimize(q, dp.Options{})
		if err != nil {
			t.Fatalf("%s: %v", ce.name, err)
		}
		if st.PairsConsidered != st.PairsConnected {
			t.Errorf("%s: DP considered %d pairs, connected %d — structural invariant broken",
				ce.name, st.PairsConsidered, st.PairsConnected)
		}
		_, st, err = Optimize(q, DefaultOptions())
		if err != nil {
			t.Fatalf("%s: SDP: %v", ce.name, err)
		}
		if st.PairsConsidered != st.PairsConnected {
			t.Errorf("%s: SDP considered %d pairs, connected %d — structural invariant broken",
				ce.name, st.PairsConsidered, st.PairsConnected)
		}
	}
}

// TestSDPEnumerationEquivalence runs SDP on the naive and the indexed
// substrate and requires the chosen
// plan, the stats, and the rendered pruning trace to be byte-for-byte
// identical. The trace is the strongest oracle available: it serializes
// every level's PruneGroup/FreeGroup split, partition membership in order,
// and the pruned sets, so any divergence in enumeration order that leaks
// into pruning shows up as a text diff.
func TestSDPEnumerationEquivalence(t *testing.T) {
	for _, ce := range equivCorpus() {
		ce := ce
		t.Run(ce.name, func(t *testing.T) {
			t.Parallel()
			q, err := workload.One(ce.spec)
			if err != nil {
				t.Fatalf("One: %v", err)
			}
			run := func(enum dp.EnumMode) (*plan.Plan, dp.Stats, string) {
				t.Helper()
				opts := DefaultOptions()
				opts.Enum = enum
				var tr Trace
				opts.Trace = &tr
				p, st, err := Optimize(q, opts)
				if err != nil {
					t.Fatalf("SDP enum=%v: %v", enum, err)
				}
				return p, st, tr.String()
			}
			pNaive, stNaive, trNaive := run(dp.EnumNaive)
			pIdx, stIdx, trIdx := run(dp.EnumIndexed)
			assertSameResult(t, "sdp-indexed", pNaive, stNaive, pIdx, stIdx)
			if trNaive != trIdx {
				t.Errorf("indexed SDP trace diverged from naive:\n--- naive ---\n%s--- indexed ---\n%s", trNaive, trIdx)
			}
			if stIdx.PairsConsidered > stNaive.PairsConsidered {
				t.Errorf("indexed considered %d pairs, naive only %d", stIdx.PairsConsidered, stNaive.PairsConsidered)
			}
		})
	}
}
