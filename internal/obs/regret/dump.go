package regret

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"sdpopt/internal/obs/lane"
	"sdpopt/internal/quality"
)

// Key identifies one rolling aggregation window: the served technique, the
// join-graph topology family, and the relation-count band.
type Key struct {
	Tech  string `json:"tech"`
	Shape string `json:"shape"`
	Band  string `json:"band"`
}

// KeySummary is one window's quality metrics in a Dump: the paper's
// Plan-Quality columns, computed over the window's current contents.
type KeySummary struct {
	Key
	// Window is the number of samples currently in the rolling window;
	// Lifetime counts every sample the key has ever absorbed.
	Window   int   `json:"window"`
	Lifetime int64 `json:"lifetime"`
	// Rho is ρ, the geometric mean of the windowed ratios; Worst is W.
	Rho   float64 `json:"rho"`
	Worst float64 `json:"worst"`
	// PctIdeal..PctBad are the bucket shares in percent (≤1.01, ≤2, ≤10,
	// >10).
	PctIdeal      float64 `json:"pct_ideal"`
	PctGood       float64 `json:"pct_good"`
	PctAcceptable float64 `json:"pct_acceptable"`
	PctBad        float64 `json:"pct_bad"`
}

// Exemplar is one retained worst-regret measurement with both plan trees,
// so /debug/regret shows not just that a technique regressed but what it
// chose and what it should have chosen.
type Exemplar struct {
	Time          time.Time `json:"time"`
	Tech          string    `json:"tech"`
	Ref           string    `json:"ref"`
	Shape         string    `json:"shape"`
	Band          string    `json:"band"`
	Rels          int       `json:"rels"`
	Source        string    `json:"source"`
	RouteReason   string    `json:"route_reason,omitempty"`
	Ratio         float64   `json:"ratio"`
	ServedCost    float64   `json:"served_cost"`
	RefCost       float64   `json:"ref_cost"`
	ServedShape   string    `json:"served_shape"`
	RefShape      string    `json:"ref_shape"`
	TraceID       string    `json:"trace_id,omitempty"`
	ShadowTraceID string    `json:"shadow_trace_id,omitempty"`
}

// Counts are the shadow layer's lifetime counters. Observed counts every
// serve offered; Sampled those passing the rate gate; the lane counters
// what became of the sampled serves (Failures produced no ratio); Pinned
// the worst-regret traces filed into the flight recorder.
type Counts struct {
	Observed int64 `json:"observed"`
	Sampled  int64 `json:"sampled"`
	lane.Counts
	Pinned int64 `json:"pinned"`
}

// Config echoes the shadow sizing so a dump is self-describing.
type Config struct {
	SampleRate    float64 `json:"sample_rate"`
	HitSampleRate float64 `json:"hit_sample_rate"`
	MaxDPRels     int     `json:"max_dp_rels"`
	Workers       int     `json:"workers"`
	QueueSize     int     `json:"queue_size"`
	DedupForNS    int64   `json:"dedup_for_ns"`
	Window        int     `json:"window"`
	TopN          int     `json:"top_n"`
	PinRatio      float64 `json:"pin_ratio"`
}

// Dump is the /debug/regret.json document: config, counters, per-key
// window summaries (worst ρ first), and the top-N regret exemplars.
type Dump struct {
	Time      time.Time    `json:"time"`
	Config    Config       `json:"config"`
	Counts    Counts       `json:"counts"`
	Keys      []KeySummary `json:"keys,omitempty"`
	Exemplars []Exemplar   `json:"exemplars,omitempty"`
}

// Snapshot serializes the shadow state. Nil-safe (returns an empty dump).
func (s *Shadow) Snapshot() *Dump {
	d := &Dump{Time: time.Now()}
	if s == nil {
		return d
	}
	d.Config = Config{
		SampleRate:    s.opts.SampleRate,
		HitSampleRate: s.opts.HitSampleRate,
		MaxDPRels:     s.opts.MaxDPRels,
		Workers:       s.opts.Workers,
		QueueSize:     s.opts.QueueSize,
		DedupForNS:    s.opts.DedupFor.Nanoseconds(),
		Window:        s.opts.Window,
		TopN:          s.opts.TopN,
		PinRatio:      s.opts.PinRatio,
	}
	d.Counts = Counts{
		Observed: s.observed.Load(),
		Sampled:  s.sampled.Load(),
		Counts:   s.lane.Counts(),
		Pinned:   s.pinned.Load(),
	}
	s.aggMu.Lock()
	for key, w := range s.windows {
		sum, err := quality.SummarizeRelative(w.ratios)
		if err != nil {
			continue // empty window; nothing to report yet
		}
		d.Keys = append(d.Keys, KeySummary{
			Key:           key,
			Window:        len(w.ratios),
			Lifetime:      w.total,
			Rho:           sum.Rho,
			Worst:         sum.Worst,
			PctIdeal:      sum.PctIdeal,
			PctGood:       sum.PctGood,
			PctAcceptable: sum.PctAcceptable,
			PctBad:        sum.PctBad,
		})
	}
	d.Exemplars = append(d.Exemplars, s.exemplars...)
	s.aggMu.Unlock()
	sort.Slice(d.Keys, func(i, j int) bool {
		a, b := d.Keys[i], d.Keys[j]
		if a.Rho != b.Rho {
			return a.Rho > b.Rho // worst regret first
		}
		if a.Tech != b.Tech {
			return a.Tech < b.Tech
		}
		if a.Shape != b.Shape {
			return a.Shape < b.Shape
		}
		return a.Band < b.Band
	})
	return d
}

// ReadDump decodes a /debug/regret.json document.
func ReadDump(r io.Reader) (*Dump, error) {
	var d Dump
	if err := json.NewDecoder(r).Decode(&d); err != nil {
		return nil, fmt.Errorf("regret: decoding dump: %w", err)
	}
	return &d, nil
}

// Render formats the dump as the text report `sdplab regret` prints: the
// counter line, a per-key quality table in the paper's I/G/A/B column
// style, and the worst-regret exemplars with both plan trees.
func (d *Dump) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "regret shadow: %d observed, %d sampled, %d deduped, %d dropped, %d completed (%d failed), %d pinned\n",
		d.Counts.Observed, d.Counts.Sampled, d.Counts.Deduped, d.Counts.Dropped,
		d.Counts.Completed, d.Counts.Failures, d.Counts.Pinned)
	fmt.Fprintf(&b, "sampling: %g computed / %g hit · reference: dp ≤ %d rels, else sdp · window %d\n",
		d.Config.SampleRate, d.Config.HitSampleRate, d.Config.MaxDPRels, d.Config.Window)
	if len(d.Keys) == 0 {
		b.WriteString("\nno samples yet\n")
		return b.String()
	}
	fmt.Fprintf(&b, "\n%-8s %-10s %-6s %7s %9s  %s\n", "tech", "shape", "band", "window", "lifetime", quality.Header())
	for _, k := range d.Keys {
		fmt.Fprintf(&b, "%-8s %-10s %-6s %7d %9d  %3.0f %3.0f %3.0f %3.0f  W=%5.2f  rho=%5.3f\n",
			k.Tech, k.Shape, k.Band, k.Window, k.Lifetime,
			k.PctIdeal, k.PctGood, k.PctAcceptable, k.PctBad, k.Worst, k.Rho)
	}
	if len(d.Exemplars) > 0 {
		fmt.Fprintf(&b, "\nworst regret exemplars (top %d):\n", len(d.Exemplars))
		for i, ex := range d.Exemplars {
			fmt.Fprintf(&b, "%2d. ratio %.3f  %s vs %s  %s/%s  %d rels  source=%s",
				i+1, ex.Ratio, ex.Tech, ex.Ref, ex.Shape, ex.Band, ex.Rels, ex.Source)
			if ex.RouteReason != "" {
				fmt.Fprintf(&b, "  route=%s", ex.RouteReason)
			}
			if ex.TraceID != "" {
				fmt.Fprintf(&b, "  trace=%s", ex.TraceID)
			}
			if ex.ShadowTraceID != "" {
				fmt.Fprintf(&b, "  shadow=%s", ex.ShadowTraceID)
			}
			b.WriteByte('\n')
			fmt.Fprintf(&b, "    served (cost %.2f): %s\n", ex.ServedCost, ex.ServedShape)
			fmt.Fprintf(&b, "    ref    (cost %.2f): %s\n", ex.RefCost, ex.RefShape)
		}
	}
	return b.String()
}
