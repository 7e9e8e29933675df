package route

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"sdpopt/internal/obs"
	"sdpopt/internal/tech"
)

// TestDecisionTableGolden pins the full decision ladder as a golden table:
// shape × relation band × remaining deadline → (technique, reason), on a
// cold router (priors only). Any change to the routing policy must show up
// here as an explicit diff.
func TestDecisionTableGolden(t *testing.T) {
	r := New(Options{})
	none := time.Duration(0)
	cases := []struct {
		shape    string
		rels     int
		deadline time.Duration
		tech     string
		reason   string
	}{
		// Fast path: small queries route greedy regardless of shape...
		{"star", 3, none, tech.Greedy, ReasonFastPath},
		{"clique", 4, none, tech.Greedy, ReasonFastPath},
		// ...and chain-like shapes route greedy regardless of size: GOO's
		// neighborhood ordering is near-ideal on chains.
		{"chain", 12, none, tech.Greedy, ReasonFastPath},
		{"chain", 25, none, tech.Greedy, ReasonFastPath},
		{"single", 1, none, tech.Greedy, ReasonFastPath},

		// The SDP default covers the middle.
		{"star", 7, none, tech.SDP, ReasonDefault},
		{"star", 12, none, tech.SDP, ReasonDefault},
		{"star-chain", 15, none, tech.SDP, ReasonDefault},
		{"tree", 16, none, tech.SDP, ReasonDefault},
		{"clique", 10, none, tech.SDP, ReasonDefault},

		// Heavy tail: IDP where full SDP risks the memory cliff.
		{"star", 20, none, tech.IDP2, ReasonHeavy},
		{"clique", 25, none, tech.IDP2, ReasonHeavy},

		// Deadline downgrades: the cold prior for SDP at 13-16 rels is
		// 60ms ×2 safety — a 25ms deadline cannot fit it, so the ladder
		// walks down to greedy; a generous deadline keeps SDP.
		{"star-chain", 15, 25 * time.Millisecond, tech.Greedy, ReasonDeadlineDowngrade},
		{"star-chain", 15, 2500 * time.Millisecond, tech.SDP, ReasonDefault},
		{"star", 12, 5 * time.Millisecond, tech.Greedy, ReasonDeadlineDowngrade},
		// Heavy tail under deadlines: IDP2's 40ms prior at 17-24 rels fits
		// ×2 safety into 250ms, but not into 60ms — greedy absorbs that.
		{"star", 20, 250 * time.Millisecond, tech.IDP2, ReasonHeavy},
		{"star", 20, 60 * time.Millisecond, tech.Greedy, ReasonDeadlineDowngrade},
		// A mid-band deadline squeeze lands on the IDP2 middle rung: SDP's
		// 60ms prior fails ×2 safety against 45ms but IDP2's 15ms fits.
		{"star-chain", 15, 45 * time.Millisecond, tech.IDP2, ReasonDeadlineDowngrade},
		// An impossible deadline still resolves to greedy, never an error.
		{"star", 12, time.Microsecond, tech.Greedy, ReasonDeadlineDowngrade},
	}
	for _, c := range cases {
		got := r.Decide(c.rels, c.shape, c.deadline)
		if got.Technique != c.tech || got.Reason != c.reason {
			t.Errorf("Decide(%d, %q, %v) = (%s, %s); want (%s, %s)",
				c.rels, c.shape, c.deadline, got.Technique, got.Reason, c.tech, c.reason)
		}
		if got.Technique != tech.Greedy && c.deadline > 0 && got.Reserve <= 0 {
			t.Errorf("Decide(%d, %q, %v): expected a fallback reserve, got %v",
				c.rels, c.shape, c.deadline, got.Reserve)
		}
		if got.Predicted <= 0 {
			t.Errorf("Decide(%d, %q, %v): non-positive prediction %v",
				c.rels, c.shape, c.deadline, got.Predicted)
		}
	}
}

// TestRegretFeedbackDemotesRoute drives the feedback loop: a fast-path key
// whose rolling ρ degrades past DemoteRho is promoted back to SDP, but only
// after MinRegretSamples observations, and an unrelated key is unaffected.
func TestRegretFeedbackDemotesRoute(t *testing.T) {
	r := New(Options{MinRegretSamples: 4})
	band := Band(12)

	// Three bad ratios: below the sample floor, route unchanged.
	for i := 0; i < 3; i++ {
		r.NoteRegret(tech.Greedy, "chain", band, 3.0)
	}
	if d := r.Decide(12, "chain", 0); d.Technique != tech.Greedy {
		t.Fatalf("below sample floor: got %s/%s, want greedy fast path", d.Technique, d.Reason)
	}

	// Fourth bad ratio crosses the floor; the EWMA is far above 1.15.
	r.NoteRegret(tech.Greedy, "chain", band, 3.0)
	d := r.Decide(12, "chain", 0)
	if d.Technique != tech.SDP || d.Reason != ReasonRegretPromote {
		t.Fatalf("after degradation: got %s/%s, want sdp/%s", d.Technique, d.Reason, ReasonRegretPromote)
	}

	// A different shape's fast path is untouched.
	if d := r.Decide(3, "star", 0); d.Technique != tech.Greedy {
		t.Fatalf("unrelated key demoted: got %s/%s", d.Technique, d.Reason)
	}
}

// TestObserveLearnsLatency checks that measured latencies displace the
// priors and that timed-out runs inflate the estimate, which is what turns
// repeated mid-flight demotions into pre-flight downgrades.
func TestObserveLearnsLatency(t *testing.T) {
	r := New(Options{})
	band := Band(15)

	// Cold prediction is the prior (60ms for sdp at 13-16).
	if got := r.Predict(tech.SDP, "star-chain", band); got != 60*time.Millisecond {
		t.Fatalf("cold prior = %v, want 60ms", got)
	}

	// A fast measurement pulls the estimate down; the 25ms deadline that
	// was downgraded on priors now fits SDP.
	r.Observe(tech.SDP, "star-chain", band, 2*time.Millisecond, false)
	if got := r.Predict(tech.SDP, "star-chain", band); got != 2*time.Millisecond {
		t.Fatalf("after one sample: predict = %v, want 2ms", got)
	}
	if d := r.Decide(15, "star-chain", 25*time.Millisecond); d.Technique != tech.SDP {
		t.Fatalf("learned-fast SDP still downgraded: %s/%s", d.Technique, d.Reason)
	}

	// Timed-out observations count double, ratcheting the estimate up.
	before := r.Predict(tech.SDP, "star-chain", band)
	r.Observe(tech.SDP, "star-chain", band, 100*time.Millisecond, true)
	if after := r.Predict(tech.SDP, "star-chain", band); after <= before {
		t.Fatalf("timeout inflation had no effect: %v -> %v", before, after)
	}
}

// TestConcurrentDecideAndUpdate hammers route lookups while profiles are
// being updated from other goroutines; run under -race this is the data
// race guard the issue asks for.
func TestConcurrentDecideAndUpdate(t *testing.T) {
	r := New(Options{})
	shapes := []string{"chain", "star", "star-chain", "clique"}
	var wg sync.WaitGroup
	stop := make(chan struct{})

	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			i := seed
			for {
				select {
				case <-stop:
					return
				default:
				}
				shape := shapes[i%len(shapes)]
				rels := 1 + i%25
				band := Band(rels)
				r.Observe(tech.SDP, shape, band, time.Duration(1+i%50)*time.Millisecond, i%7 == 0)
				r.NoteRegret(tech.Greedy, shape, band, 1.0+float64(i%10)/4)
				r.Count(tech.Greedy, ReasonFastPath)
				i++
			}
		}(w)
	}

	deadlines := []time.Duration{0, 10 * time.Millisecond, 100 * time.Millisecond, time.Second}
	for i := 0; i < 4000; i++ {
		shape := shapes[i%len(shapes)]
		d := r.Decide(1+i%25, shape, deadlines[i%len(deadlines)])
		if d.Technique == "" || d.Reason == "" {
			t.Fatalf("empty decision for %s/%d", shape, 1+i%25)
		}
		if i%500 == 0 {
			_ = r.Snapshot()
		}
	}
	close(stop)
	wg.Wait()
}

// TestSnapshotAndHandlers sanity-checks the debug surfaces: the JSON dump
// round-trips with a populated decision table and the HTML page renders.
func TestSnapshotAndHandlers(t *testing.T) {
	r := New(Options{})
	r.Observe(tech.SDP, "star", Band(12), 9*time.Millisecond, false)
	r.NoteRegret(tech.Greedy, "chain", Band(12), 1.02)
	r.Count(tech.Greedy, ReasonFastPath)
	r.Count(tech.Greedy, ReasonDeadlineDemote)

	mux := obs.NewDebugMux()
	obs.MountPage(mux, "/debug/routes", "technique routing", r.Snapshot)
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/routes.json", nil))
	var d Dump
	if err := json.Unmarshal(rec.Body.Bytes(), &d); err != nil {
		t.Fatalf("routes.json does not decode: %v", err)
	}
	if len(d.Table) == 0 {
		t.Fatal("dump has an empty decision table")
	}
	if d.Fallbacks != 1 {
		t.Fatalf("fallbacks = %d, want 1 (from the deadline-demote count)", d.Fallbacks)
	}
	if len(d.Latency) != 1 || d.Latency[0].Samples != 1 {
		t.Fatalf("latency profiles = %+v, want one single-sample entry", d.Latency)
	}

	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/routes", nil))
	body := rec.Body.String()
	for _, want := range []string{"Decision table", "auto:greedy-fastpath", "Latency profiles"} {
		if !strings.Contains(body, want) {
			t.Errorf("debug page missing %q", want)
		}
	}

	// Nil router stays safe for optional wiring.
	if d := (*Router)(nil).Snapshot(); len(d.Table) != 0 {
		t.Fatal("nil snapshot should have no table")
	}
}

// TestExactTierStaleDemotion proves the cardinality-feedback coupling: with
// the exact tier enabled, a healthy shape earns exhaustive DP while a
// stale-flagged one is demoted to the robust heuristic.
func TestExactTierStaleDemotion(t *testing.T) {
	r := New(Options{ExactRels: 12})

	healthy := r.DecideObserved(10, "star", 0, 0)
	if healthy.Technique != tech.DP || healthy.Reason != ReasonExact {
		t.Fatalf("healthy 10-rel star = %s/%s, want dp/%s", healthy.Technique, healthy.Reason, ReasonExact)
	}
	stale := r.DecideObserved(10, "star", 0, 0.8)
	if stale.Technique != tech.SDP || stale.Reason != ReasonStaleDemote {
		t.Fatalf("stale 10-rel star = %s/%s, want sdp/%s", stale.Technique, stale.Reason, ReasonStaleDemote)
	}
	// Below the staleness threshold the exact tier holds.
	if mild := r.DecideObserved(10, "star", 0, 0.3); mild.Technique != tech.DP {
		t.Fatalf("mildly-stale shape demoted: %s/%s", mild.Technique, mild.Reason)
	}
	// The fast path and heavy tail are untouched by the exact tier.
	if d := r.DecideObserved(3, "star", 0, 0); d.Technique != tech.Greedy {
		t.Fatalf("small query = %s, want greedy", d.Technique)
	}
	if d := r.DecideObserved(25, "clique", 0, 0); d.Technique != tech.IDP2 {
		t.Fatalf("heavy query = %s, want idp2", d.Technique)
	}
	// A deadline the DP prior cannot fit walks the ladder down from dp.
	if d := r.DecideObserved(10, "star", 40*time.Millisecond, 0); d.Technique == tech.DP {
		t.Fatalf("40ms deadline kept dp (predicted %v)", d.Predicted)
	} else if d.Reason != ReasonDeadlineDowngrade {
		t.Fatalf("deadline-squeezed exact tier reason = %s", d.Reason)
	}

	// Without the opt-in, staleness or not, DP is never routed.
	def := New(Options{})
	for _, s := range []float64{0, 0.9} {
		if d := def.DecideObserved(10, "star", 0, s); d.Technique == tech.DP {
			t.Fatalf("default router routed dp (staleness %g)", s)
		}
	}
	// Decide is DecideObserved at staleness zero.
	if a, b := def.Decide(10, "star", 0), def.DecideObserved(10, "star", 0, 0); a != b {
		t.Fatalf("Decide %+v != DecideObserved(…, 0) %+v", a, b)
	}
}
