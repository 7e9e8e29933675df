package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// Record is one decoded JSONL trace line.
type Record map[string]any

// Ev returns the record's event type.
func (r Record) Ev() string { s, _ := r["ev"].(string); return s }

// Str returns a string attribute ("" if absent).
func (r Record) Str(key string) string { s, _ := r[key].(string); return s }

// Num returns a numeric attribute (0 if absent). JSON numbers decode as
// float64.
func (r Record) Num(key string) float64 {
	f, _ := r[key].(float64)
	return f
}

// ReadJSONL decodes a JSONL trace stream. Blank lines are skipped;
// malformed lines abort with the line number.
func ReadJSONL(rd io.Reader) ([]Record, error) {
	sc := bufio.NewScanner(rd)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	var out []Record
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		var r Record
		if err := json.Unmarshal([]byte(text), &r); err != nil {
			return nil, fmt.Errorf("obs: trace line %d: %w", line, err)
		}
		out = append(out, r)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// ReadJSONLLenient decodes a JSONL trace stream, skipping malformed lines
// instead of aborting: each skipped line produces one warning on warn (when
// non-nil) and the total skipped count is returned alongside the good
// records. A truncated tail — the common corruption for a trace file cut
// off mid-write — thus costs only the damaged lines, not the whole summary.
// Only a read error from rd itself is fatal.
func ReadJSONLLenient(rd io.Reader, warn io.Writer) (recs []Record, skipped int, err error) {
	sc := bufio.NewScanner(rd)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		var r Record
		if uerr := json.Unmarshal([]byte(text), &r); uerr != nil {
			skipped++
			if warn != nil {
				fmt.Fprintf(warn, "warning: trace line %d skipped: %v\n", line, uerr)
			}
			continue
		}
		recs = append(recs, r)
	}
	if err := sc.Err(); err != nil {
		return nil, skipped, err
	}
	return recs, skipped, nil
}

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

// TraceSummary is the aggregate view of one JSONL trace.
type TraceSummary struct {
	Events     int
	Techniques []TechSummary
	Levels     []LevelSummary
	Criteria   []CriterionSummary
	Partitions int64
	Pruned     int64
}

// Summarize aggregates a decoded trace: per-technique effort (optimize.end),
// per-level timing (level), and skyline pruning efficacy per criterion
// (sdp.partition).
func Summarize(records []Record) *TraceSummary {
	s := &TraceSummary{Events: len(records)}
	techs := map[string]*TechSummary{}
	levels := map[int]*LevelSummary{}
	crits := map[string]*CriterionSummary{}
	techOf := func(name string) *TechSummary {
		t := techs[name]
		if t == nil {
			t = &TechSummary{Tech: name}
			techs[name] = t
		}
		return t
	}
	for _, r := range records {
		switch r.Ev() {
		case EvOptimizeEnd:
			t := techOf(r.Str("tech"))
			t.Runs++
			t.Total += time.Duration(int64(r.Num("dur_ns")))
			t.PlansCosted += int64(r.Num("plans_costed"))
			t.Classes += int64(r.Num("classes_created"))
			if pb := int64(r.Num("peak_sim_bytes")); pb > t.PeakSimBytes {
				t.PeakSimBytes = pb
			}
			if r.Str("err") != "" {
				t.Aborts++
			}
		case EvLevel:
			lv := int(r.Num("level"))
			l := levels[lv]
			if l == nil {
				l = &LevelSummary{Level: lv}
				levels[lv] = l
			}
			l.Spans++
			l.Total += time.Duration(int64(r.Num("dur_ns")))
			l.Classes += int64(r.Num("classes_created"))
			l.PlansCosted += int64(r.Num("plans_costed"))
			l.PairsConsidered += int64(r.Num("pairs_considered"))
			l.PairsConnected += int64(r.Num("pairs_connected"))
		case EvSDPPartition:
			s.Partitions++
			size := int64(r.Num("size"))
			for _, cr := range []string{"RC", "CS", "RS", "all"} {
				key := strings.ToLower(cr)
				if _, ok := r[key]; !ok && cr != "all" {
					continue // Option1/Strong traces carry only "all"
				}
				c := crits[cr]
				if c == nil {
					c = &CriterionSummary{Criterion: cr}
					crits[cr] = c
				}
				c.Candidates += size
				if cr == "all" {
					c.Survivors += int64(r.Num("survivors"))
				} else {
					c.Survivors += int64(r.Num(key))
				}
			}
		case EvSDPLevel:
			s.Pruned += int64(r.Num("pruned"))
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
	for _, c := range []string{"RC", "CS", "RS", "all"} {
		if cr := crits[c]; cr != nil {
			s.Criteria = append(s.Criteria, *cr)
		}
	}
	return s
}

// Render formats the summary as the sdptrace report: effort per technique,
// top levels by time, and pruning efficacy per skyline criterion.
func (s *TraceSummary) Render(topLevels int) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "trace: %d events\n", s.Events)

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
