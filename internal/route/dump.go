package route

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Profile is one latency or regret EWMA in a Dump.
type Profile struct {
	Tech  string `json:"tech"`
	Shape string `json:"shape"`
	Band  string `json:"band"`
	// Samples is how many observations the EWMA has absorbed.
	Samples int64 `json:"samples"`
	// EWMA is the smoothed value: milliseconds for latency profiles, a
	// cost ratio for regret profiles. Last and Max are the most recent and
	// largest raw observations.
	EWMA float64 `json:"ewma"`
	Last float64 `json:"last"`
	Max  float64 `json:"max"`
}

// DecisionCount is one (technique, reason) tally of executed routes.
type DecisionCount struct {
	Technique string `json:"technique"`
	Reason    string `json:"reason"`
	Count     int64  `json:"count"`
}

// TableRow is one entry in the live decision table: what Decide would
// return right now for a representative (shape, rels, deadline) input.
type TableRow struct {
	Shape string `json:"shape"`
	Rels  int    `json:"rels"`
	Band  string `json:"band"`
	// DeadlineMS is the remaining deadline fed to Decide; 0 means none.
	DeadlineMS  int64   `json:"deadline_ms"`
	Technique   string  `json:"technique"`
	Reason      string  `json:"reason"`
	PredictedMS float64 `json:"predicted_ms"`
	ReserveMS   float64 `json:"reserve_ms"`
}

// DumpConfig echoes the router thresholds so a dump is self-describing.
type DumpConfig struct {
	SmallRels        int     `json:"small_rels"`
	HeavyRels        int     `json:"heavy_rels"`
	DemoteRho        float64 `json:"demote_rho"`
	MinRegretSamples int64   `json:"min_regret_samples"`
	SafetyFactor     float64 `json:"safety_factor"`
	LatencyAlpha     float64 `json:"latency_alpha"`
	RegretAlpha      float64 `json:"regret_alpha"`
	MinReserveMS     float64 `json:"min_reserve_ms"`
	MaxReserveMS     float64 `json:"max_reserve_ms"`
	ExactRels        int     `json:"exact_rels"`
	StaleScore       float64 `json:"stale_score"`
}

// Dump is the /debug/routes.json document: config, executed-decision
// tallies, live latency and regret profiles, and the decision table the
// current profile state implies.
type Dump struct {
	Time      time.Time       `json:"time"`
	Config    DumpConfig      `json:"config"`
	Fallbacks int64           `json:"fallbacks"`
	Decisions []DecisionCount `json:"decisions,omitempty"`
	Latency   []Profile       `json:"latency,omitempty"`
	Regret    []Profile       `json:"regret,omitempty"`
	Table     []TableRow      `json:"table"`
}

// tableShapes are the topologies the decision table samples; tableRels one
// representative relation count per band; tableDeadlines the remaining-
// deadline columns (0 = no deadline).
var (
	tableShapes    = []string{"chain", "star", "star-chain", "tree", "clique"}
	tableRels      = []int{3, 7, 11, 15, 20, 25}
	tableDeadlines = []time.Duration{0, 25 * time.Millisecond, 250 * time.Millisecond, 2500 * time.Millisecond}
)

// Snapshot serializes the router state. Nil-safe (returns an empty dump
// with no table).
func (r *Router) Snapshot() *Dump {
	d := &Dump{Time: time.Now()}
	if r == nil {
		return d
	}
	d.Config = DumpConfig{
		SmallRels:        r.opts.SmallRels,
		HeavyRels:        r.opts.HeavyRels,
		DemoteRho:        r.opts.DemoteRho,
		MinRegretSamples: r.opts.MinRegretSamples,
		SafetyFactor:     r.opts.SafetyFactor,
		LatencyAlpha:     r.opts.LatencyAlpha,
		RegretAlpha:      r.opts.RegretAlpha,
		MinReserveMS:     ms(r.opts.MinReserve),
		MaxReserveMS:     ms(r.opts.MaxReserve),
		ExactRels:        r.opts.ExactRels,
		StaleScore:       r.opts.StaleScore,
	}

	r.mu.RLock()
	d.Fallbacks = r.fallbacks
	for k, n := range r.decisions {
		d.Decisions = append(d.Decisions, DecisionCount{Technique: k[0], Reason: k[1], Count: n})
	}
	for k, e := range r.lat {
		d.Latency = append(d.Latency, Profile{
			Tech: k.tech, Shape: k.shape, Band: k.band,
			Samples: e.n, EWMA: e.val / 1e6, Last: e.last / 1e6, Max: e.max / 1e6,
		})
	}
	for k, e := range r.reg {
		d.Regret = append(d.Regret, Profile{
			Tech: k.tech, Shape: k.shape, Band: k.band,
			Samples: e.n, EWMA: e.val, Last: e.last, Max: e.max,
		})
	}
	r.mu.RUnlock()

	sort.Slice(d.Decisions, func(i, j int) bool {
		a, b := d.Decisions[i], d.Decisions[j]
		if a.Count != b.Count {
			return a.Count > b.Count
		}
		if a.Technique != b.Technique {
			return a.Technique < b.Technique
		}
		return a.Reason < b.Reason
	})
	sortProfiles(d.Latency)
	sortProfiles(d.Regret)

	// The live decision table: Decide over representative inputs, so the
	// page shows what the router would do right now — priors where no
	// traffic has taught it yet, learned EWMAs where it has.
	for _, shape := range tableShapes {
		for _, rels := range tableRels {
			for _, dl := range tableDeadlines {
				dec := r.Decide(rels, shape, dl)
				d.Table = append(d.Table, TableRow{
					Shape: shape, Rels: rels, Band: Band(rels),
					DeadlineMS:  dl.Milliseconds(),
					Technique:   dec.Technique,
					Reason:      dec.Reason,
					PredictedMS: ms(dec.Predicted),
					ReserveMS:   ms(dec.Reserve),
				})
			}
		}
	}
	return d
}

// Render formats the dump as the /debug/routes text: the router thresholds,
// executed-decision tallies, the decision table the current profile state
// implies, and the latency and regret profiles.
func (d *Dump) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "technique routing: fast path ≤ %d rels or chain-like · heavy tail ≥ %d rels · regret demotion at ρ > %g (≥ %d samples) · safety ×%g\n",
		d.Config.SmallRels, d.Config.HeavyRels, d.Config.DemoteRho, d.Config.MinRegretSamples, d.Config.SafetyFactor)
	fmt.Fprintf(&b, "exact tier ≤ %d rels (0 = off), demoted at staleness ≥ %g · %d mid-flight fallbacks\n",
		d.Config.ExactRels, d.Config.StaleScore, d.Fallbacks)

	b.WriteString("\nExecuted decisions\n")
	if len(d.Decisions) == 0 {
		b.WriteString("no requests routed yet\n")
	}
	for _, dc := range d.Decisions {
		fmt.Fprintf(&b, "%-8s %-26s %8d\n", dc.Technique, dc.Reason, dc.Count)
	}

	b.WriteString("\nDecision table\n")
	b.WriteString("what Decide returns right now per (shape, rels, remaining deadline); predictions are EWMAs where traffic has taught the router, priors elsewhere\n")
	fmt.Fprintf(&b, "%-10s %4s %8s %-8s %-26s %11s %9s\n", "shape", "rels", "deadline", "route", "reason", "predicted", "reserve")
	for _, row := range d.Table {
		dl := "∞"
		if row.DeadlineMS > 0 {
			dl = fmt.Sprintf("%dms", row.DeadlineMS)
		}
		fmt.Fprintf(&b, "%-10s %4d %8s %-8s %-26s %9.2fms %7.1fms\n",
			row.Shape, row.Rels, dl, row.Technique, row.Reason, row.PredictedMS, row.ReserveMS)
	}

	b.WriteString("\nLatency profiles (ms)\n")
	renderProfiles(&b, d.Latency)
	b.WriteString("\nRegret profiles (ρ)\n")
	renderProfiles(&b, d.Regret)
	return b.String()
}

func renderProfiles(b *strings.Builder, ps []Profile) {
	if len(ps) == 0 {
		b.WriteString("no observations yet — predictions fall back to priors\n")
		return
	}
	fmt.Fprintf(b, "%-8s %-10s %-6s %8s %9s %9s %9s\n", "tech", "shape", "band", "samples", "ewma", "last", "max")
	for _, p := range ps {
		fmt.Fprintf(b, "%-8s %-10s %-6s %8d %9.3f %9.3f %9.3f\n", p.Tech, p.Shape, p.Band, p.Samples, p.EWMA, p.Last, p.Max)
	}
}

func sortProfiles(ps []Profile) {
	sort.Slice(ps, func(i, j int) bool {
		a, b := ps[i], ps[j]
		if a.Tech != b.Tech {
			return a.Tech < b.Tech
		}
		if a.Shape != b.Shape {
			return a.Shape < b.Shape
		}
		return a.Band < b.Band
	})
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
