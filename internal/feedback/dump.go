package feedback

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"time"

	"sdpopt/internal/obs/lane"
)

// ObjectSummary is one catalog object's ledger state in a Dump.
type ObjectSummary struct {
	// Object is the catalog-object key; Kind is relation or predicate.
	Object string `json:"object"`
	Kind   string `json:"kind"`
	// Count is the lifetime observation count; Window how many are in the
	// current rolling window.
	Count  int64 `json:"count"`
	Window int   `json:"window"`
	// Over/Under are the lifetime directional-bias counts: observations
	// where the estimate exceeded / undershot the actual.
	Over  int64 `json:"over"`
	Under int64 `json:"under"`
	// QErr* are q-error quantiles over the current window.
	QErrP50 float64 `json:"qerr_p50"`
	QErrP95 float64 `json:"qerr_p95"`
	QErrMax float64 `json:"qerr_max"`
	// Staleness is the derived score 1 − 1/geomean(qerr) ∈ [0, 1); Stale
	// flags objects at or above the ledger's threshold with enough
	// observations.
	Staleness float64 `json:"staleness"`
	Stale     bool    `json:"stale"`
	// LastEst/LastActual are the most recent observation, for display.
	LastEst    float64 `json:"last_est"`
	LastActual float64 `json:"last_actual"`
	// RecentQErr is the window's q-errors oldest-first — the sparkline.
	RecentQErr []float64 `json:"recent_qerr,omitempty"`
}

// SamplerCounts are the exec-sampler's lifetime counters: serves offered,
// those passing the rate gate, those skipped as ineligible, and the lane
// counters of the rest.
type SamplerCounts struct {
	Observed int64 `json:"observed"`
	Sampled  int64 `json:"sampled"`
	Skipped  int64 `json:"skipped"`
	lane.Counts
}

// LedgerConfig echoes the ledger sizing so a dump is self-describing.
type LedgerConfig struct {
	Window     int     `json:"window"`
	MinObs     int     `json:"min_obs"`
	StaleScore float64 `json:"stale_score"`
}

// Dump is the /debug/cardinality.json document.
type Dump struct {
	Time   time.Time    `json:"time"`
	Config LedgerConfig `json:"config"`
	// Observations is the ledger's lifetime observation count;
	// StaleObjects how many objects are currently flagged.
	Observations int64 `json:"observations"`
	StaleObjects int   `json:"stale_objects"`
	// Sampler carries the exec-sampler counters when sampling is enabled.
	Sampler *SamplerCounts `json:"sampler,omitempty"`
	// Objects are the per-object summaries, worst q-error first.
	Objects []ObjectSummary `json:"objects,omitempty"`
}

// Snapshot serializes the ledger (and optionally the sampler's counters).
// Nil-safe on both receivers; returns an empty dump for a nil ledger.
func (l *Ledger) Snapshot(s *Sampler) *Dump {
	d := &Dump{Time: time.Now()}
	if l == nil {
		return d
	}
	d.Config = LedgerConfig{Window: l.opts.Window, MinObs: l.opts.MinObs, StaleScore: l.opts.StaleScore}
	l.mu.RLock()
	d.Observations = l.total
	for key, st := range l.objects {
		window := st.windowOrdered()
		qerrs := make([]float64, len(window))
		for i, r := range window {
			if r < 1 {
				r = 1 / r
			}
			qerrs[i] = r
		}
		p50, p95, maxQ := summarizeWindow(qerrs)
		score := st.score()
		d.Objects = append(d.Objects, ObjectSummary{
			Object:     key,
			Kind:       st.kind,
			Count:      st.total,
			Window:     len(window),
			Over:       st.over,
			Under:      st.under,
			QErrP50:    p50,
			QErrP95:    p95,
			QErrMax:    maxQ,
			Staleness:  score,
			Stale:      st.total >= int64(l.opts.MinObs) && score >= l.opts.StaleScore,
			LastEst:    st.lastEst,
			LastActual: st.lastActual,
			RecentQErr: qerrs,
		})
		if st.total >= int64(l.opts.MinObs) && score >= l.opts.StaleScore {
			d.StaleObjects++
		}
	}
	l.mu.RUnlock()
	sort.Slice(d.Objects, func(i, j int) bool {
		a, b := d.Objects[i], d.Objects[j]
		if a.QErrP95 != b.QErrP95 {
			return a.QErrP95 > b.QErrP95 // worst estimates first
		}
		return a.Object < b.Object
	})
	if s != nil {
		d.Sampler = &SamplerCounts{
			Observed: s.observed.Load(),
			Sampled:  s.sampled.Load(),
			Skipped:  s.skipped.Load(),
			Counts:   s.lane.Counts(),
		}
	}
	return d
}

// ReadDump decodes a /debug/cardinality.json document.
func ReadDump(r io.Reader) (*Dump, error) {
	var d Dump
	if err := json.NewDecoder(r).Decode(&d); err != nil {
		return nil, fmt.Errorf("feedback: decoding dump: %w", err)
	}
	return &d, nil
}

// sparkline renders values as a compact eight-level bar string, scaled so
// q-error 1 is the lowest bar and the window maximum the highest.
func sparkline(vals []float64) string {
	if len(vals) == 0 {
		return ""
	}
	bars := []rune("▁▂▃▄▅▆▇█")
	maxV := 1.0
	for _, v := range vals {
		if v > maxV {
			maxV = v
		}
	}
	var b strings.Builder
	for _, v := range vals {
		i := 0
		if maxV > 1 {
			i = int((v - 1) / (maxV - 1) * float64(len(bars)-1))
		}
		if i < 0 {
			i = 0
		}
		if i >= len(bars) {
			i = len(bars) - 1
		}
		b.WriteRune(bars[i])
	}
	return b.String()
}

// Render formats the dump as the text report `sdplab feedback` prints.
func (d *Dump) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cardinality feedback: %d observations, %d objects (%d stale)\n",
		d.Observations, len(d.Objects), d.StaleObjects)
	fmt.Fprintf(&b, "ledger: window %d · min obs %d · stale at score ≥ %g (geomean q-error ≥ %g)\n",
		d.Config.Window, d.Config.MinObs, d.Config.StaleScore, staleQErr(d.Config.StaleScore))
	if d.Sampler != nil {
		fmt.Fprintf(&b, "sampler: %d observed, %d sampled, %d skipped, %d deduped, %d dropped, %d completed (%d failed)\n",
			d.Sampler.Observed, d.Sampler.Sampled, d.Sampler.Skipped, d.Sampler.Deduped,
			d.Sampler.Dropped, d.Sampler.Completed, d.Sampler.Failures)
	}
	if len(d.Objects) == 0 {
		b.WriteString("\nno observations yet\n")
		return b.String()
	}
	fmt.Fprintf(&b, "\n%-28s %-9s %6s %5s %5s %8s %8s %8s %6s %-6s %s\n",
		"object", "kind", "count", "over", "under", "qerr p50", "qerr p95", "qerr max", "stale", "flag", "window")
	for _, o := range d.Objects {
		flag := ""
		if o.Stale {
			flag = "STALE"
		}
		fmt.Fprintf(&b, "%-28s %-9s %6d %5d %5d %8.2f %8.2f %8.2f %6.2f %-6s %s\n",
			o.Object, o.Kind, o.Count, o.Over, o.Under,
			o.QErrP50, o.QErrP95, o.QErrMax, o.Staleness, flag, sparkline(o.RecentQErr))
	}
	return b.String()
}

// staleQErr inverts the staleness-score mapping: the geomean q-error a
// score corresponds to.
func staleQErr(score float64) float64 {
	if score >= 1 {
		return 1e18
	}
	return 1 / (1 - score)
}

// summarizeWindow reduces one rolling window of raw observations to the
// (p50, p95, max) triple the ledger reports. It is defensively NaN-safe for
// the degenerate windows real ledgers produce — empty (all zeros),
// single-observation (all three equal that value), and all-equal — and
// ignores NaN/Inf inputs entirely rather than letting one bad division
// poison a JSON rendering.
func summarizeWindow(vals []float64) (p50, p95, max float64) {
	clean := make([]float64, 0, len(vals))
	for _, v := range vals {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			continue
		}
		clean = append(clean, v)
	}
	if len(clean) == 0 {
		return 0, 0, 0
	}
	sort.Float64s(clean)
	// Nearest-rank quantiles: exact for 1-element and all-equal windows.
	pick := func(q float64) float64 {
		i := int(math.Ceil(q*float64(len(clean)))) - 1
		if i < 0 {
			i = 0
		}
		if i >= len(clean) {
			i = len(clean) - 1
		}
		return clean[i]
	}
	return pick(0.5), pick(0.95), clean[len(clean)-1]
}
