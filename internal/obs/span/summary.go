package span

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// TechSummary aggregates one technique's optimization effort.
type TechSummary struct {
	Tech         string
	Runs         int
	Aborts       int
	Total        time.Duration
	PlansCosted  int64
	Classes      int64
	PeakSimBytes int64
}

// LevelSummary aggregates one enumeration level across all traced runs.
type LevelSummary struct {
	Level       int
	Spans       int
	Total       time.Duration
	Classes     int64
	PlansCosted int64
	// PairsConsidered and PairsConnected are the enumerator's candidate
	// pair counts at this level: pairs examined and pairs passing the
	// disjoint+connected filter. Considered/Connected shows how sharply
	// the adjacency index narrows the level's search.
	PairsConsidered int64
	PairsConnected  int64
}

// CriterionSummary aggregates pruning efficacy for one skyline criterion:
// of the JCRs entering partitions, how many that criterion kept.
type CriterionSummary struct {
	Criterion  string
	Candidates int64
	Survivors  int64
}

// SurvivalRate is the fraction of candidates the criterion kept.
func (c CriterionSummary) SurvivalRate() float64 {
	if c.Candidates == 0 {
		return 0
	}
	return float64(c.Survivors) / float64(c.Candidates)
}

// TraceSummary is the aggregate view of a set of span trees.
type TraceSummary struct {
	Spans      int
	Techniques []TechSummary
	Levels     []LevelSummary
	Criteria   []CriterionSummary
	Partitions int64
	Pruned     int64
}

// criteria are the skyline criteria a summary reports, in table order:
// Option 2's three pairwise skylines, then the union every option records.
var criteria = []string{"RC", "CS", "RS", "all"}

// Summarize aggregates span trees by span name: per-technique effort
// ("optimize"), per-level timing ("level"), skyline pruning efficacy per
// criterion ("sdp.partition") and JCRs pruned ("sdp.level").
func Summarize(traces []TraceJSON) *TraceSummary {
	s := &TraceSummary{}
	techs := map[string]*TechSummary{}
	levels := map[int]*LevelSummary{}
	crits := map[string]*CriterionSummary{}
	var walk func(sp *SpanJSON)
	walk = func(sp *SpanJSON) {
		s.Spans++
		switch sp.Name {
		case "optimize":
			name, _ := sp.Attrs["tech"].(string)
			t := techs[name]
			if t == nil {
				t = &TechSummary{Tech: name}
				techs[name] = t
			}
			t.Runs++
			// The engine's own elapsed time when it reported one, else the
			// span's wall time.
			dur := sp.DurNS
			if _, ok := sp.Attrs["dur_ns"]; ok {
				dur = sp.Int("dur_ns")
			}
			t.Total += time.Duration(dur)
			t.PlansCosted += sp.Int("plans_costed")
			t.Classes += sp.Int("classes_created")
			if pb := sp.Int("peak_sim_bytes"); pb > t.PeakSimBytes {
				t.PeakSimBytes = pb
			}
			if sp.Error != "" {
				t.Aborts++
			}
		case "level":
			lv := int(sp.Int("level"))
			l := levels[lv]
			if l == nil {
				l = &LevelSummary{Level: lv}
				levels[lv] = l
			}
			l.Spans++
			l.Total += time.Duration(sp.DurNS)
			l.Classes += sp.Int("classes_created")
			l.PlansCosted += sp.Int("plans_costed")
			l.PairsConsidered += sp.Int("pairs_considered")
			l.PairsConnected += sp.Int("pairs_connected")
		case "sdp.partition":
			s.Partitions++
			size := sp.Int("size")
			for _, cr := range criteria {
				key := "survivors"
				if cr != "all" {
					key = strings.ToLower(cr)
					if _, ok := sp.Attrs[key]; !ok {
						continue // Option1/Strong partitions carry only the union
					}
				}
				c := crits[cr]
				if c == nil {
					c = &CriterionSummary{Criterion: cr}
					crits[cr] = c
				}
				c.Candidates += size
				c.Survivors += sp.Int(key)
			}
		case "sdp.level":
			s.Pruned += sp.Int("pruned")
		}
		for i := range sp.Children {
			walk(&sp.Children[i])
		}
	}
	for i := range traces {
		if traces[i].Root != nil {
			walk(traces[i].Root)
		}
	}
	for _, t := range techs {
		s.Techniques = append(s.Techniques, *t)
	}
	sort.Slice(s.Techniques, func(i, j int) bool { return s.Techniques[i].Tech < s.Techniques[j].Tech })
	for _, l := range levels {
		s.Levels = append(s.Levels, *l)
	}
	sort.Slice(s.Levels, func(i, j int) bool { return s.Levels[i].Level < s.Levels[j].Level })
	for _, c := range criteria {
		if cr := crits[c]; cr != nil {
			s.Criteria = append(s.Criteria, *cr)
		}
	}
	return s
}

// Int reads a numeric attribute or counter (0 if absent). Attributes hold
// Go integers in process and float64 after a JSON round trip; both read
// the same.
func (s *SpanJSON) Int(key string) int64 {
	switch v := s.Attrs[key].(type) {
	case int:
		return int64(v)
	case int64:
		return v
	case float64:
		return int64(v)
	}
	return s.Counters[key]
}

// Render formats the summary as three tables: effort per technique, top
// levels by time, and pruning efficacy per skyline criterion.
func (s *TraceSummary) Render(topLevels int) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "trace: %d spans\n", s.Spans)

	if len(s.Techniques) > 0 {
		sb.WriteString("\nEffort per technique\n")
		fmt.Fprintf(&sb, "%-10s %6s %6s %14s %14s %14s %12s\n",
			"Tech", "Runs", "Abort", "TotalTime", "MeanTime", "PlansCosted", "PeakMB")
		for _, t := range s.Techniques {
			mean := time.Duration(0)
			if t.Runs > 0 {
				mean = t.Total / time.Duration(t.Runs)
			}
			fmt.Fprintf(&sb, "%-10s %6d %6d %14v %14v %14d %12.2f\n",
				t.Tech, t.Runs, t.Aborts, t.Total.Round(time.Microsecond),
				mean.Round(time.Microsecond), t.PlansCosted, float64(t.PeakSimBytes)/(1<<20))
		}
	}

	if len(s.Levels) > 0 {
		byTime := append([]LevelSummary(nil), s.Levels...)
		sort.Slice(byTime, func(i, j int) bool { return byTime[i].Total > byTime[j].Total })
		if topLevels > 0 && len(byTime) > topLevels {
			byTime = byTime[:topLevels]
		}
		fmt.Fprintf(&sb, "\nTop %d levels by time\n", len(byTime))
		fmt.Fprintf(&sb, "%6s %6s %14s %14s %14s %14s %14s\n",
			"Level", "Spans", "TotalTime", "Classes", "PlansCosted", "PairsSeen", "PairsJoined")
		for _, l := range byTime {
			fmt.Fprintf(&sb, "%6d %6d %14v %14d %14d %14d %14d\n",
				l.Level, l.Spans, l.Total.Round(time.Microsecond), l.Classes, l.PlansCosted,
				l.PairsConsidered, l.PairsConnected)
		}
	}

	if len(s.Criteria) > 0 {
		sb.WriteString("\nSkyline pruning efficacy per criterion\n")
		fmt.Fprintf(&sb, "%-10s %12s %12s %10s\n", "Criterion", "Candidates", "Survivors", "KeepRate")
		for _, c := range s.Criteria {
			fmt.Fprintf(&sb, "%-10s %12d %12d %9.1f%%\n",
				c.Criterion, c.Candidates, c.Survivors, 100*c.SurvivalRate())
		}
		fmt.Fprintf(&sb, "partitions=%d, JCRs pruned=%d\n", s.Partitions, s.Pruned)
	}
	return sb.String()
}
