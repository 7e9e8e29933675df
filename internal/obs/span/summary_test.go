package span_test

import (
	"strings"
	"testing"
	"time"

	"sdpopt/internal/obs/span"
)

func TestSummarize(t *testing.T) {
	root := span.New("run")
	for _, r := range []struct {
		tech                string
		durNS, costed, peak int64
		classes             int
		err                 string
	}{
		{"SDP", 2e6, 100, 1 << 20, 20, ""},
		{"DP", 5e6, 900, 2 << 20, 80, "memo: simulated memory budget exceeded"},
	} {
		o := root.Child("optimize")
		o.SetAttr("tech", r.tech)
		o.SetAttr("dur_ns", r.durNS)
		o.SetAttr("plans_costed", r.costed)
		o.SetAttr("classes_created", r.classes)
		o.SetAttr("peak_sim_bytes", r.peak)
		o.SetError(r.err)
		o.Finish()
	}
	o := root.Child("optimize")
	o.SetAttr("tech", "SDP")
	for _, l := range []struct {
		level, created int
		costed         int64
		d              time.Duration
	}{{2, 8, 40, time.Millisecond}, {3, 12, 60, 3 * time.Millisecond}} {
		lv := o.ChildAt("level", time.Now(), l.d)
		lv.SetAttr("level", l.level)
		lv.SetAttr("classes_created", l.created)
		lv.SetAttr("plans_costed", l.costed)
	}
	sl := o.Child("sdp.level")
	sl.SetAttr("pruned", 4)
	p := sl.ChildAt("sdp.partition", time.Now(), time.Microsecond)
	for k, v := range map[string]int{"size": 10, "survivors": 6, "rc": 4, "cs": 3, "rs": 5} {
		p.SetAttr(k, v)
	}
	sl.Finish()
	o.Finish()
	root.Finish()
	root.Trace().Finish(0)

	s := span.Summarize([]span.TraceJSON{root.Trace().Snapshot()})
	if len(s.Techniques) != 2 {
		t.Fatalf("techniques = %d, want 2", len(s.Techniques))
	}
	dp, sdp := s.Techniques[0], s.Techniques[1]
	if dp.Tech != "DP" || dp.Aborts != 1 || dp.PlansCosted != 900 || dp.Total != 5*time.Millisecond {
		t.Fatalf("bad DP summary: %+v", dp)
	}
	if sdp.Tech != "SDP" || sdp.Runs != 2 || sdp.Aborts != 0 || sdp.PeakSimBytes != 1<<20 {
		t.Fatalf("bad SDP summary: %+v", sdp)
	}
	if len(s.Levels) != 2 || s.Levels[1].Level != 3 || s.Levels[1].Classes != 12 {
		t.Fatalf("bad level summary: %+v", s.Levels)
	}
	if s.Partitions != 1 || s.Pruned != 4 {
		t.Fatalf("partitions=%d pruned=%d, want 1/4", s.Partitions, s.Pruned)
	}
	var rc, all *span.CriterionSummary
	for i := range s.Criteria {
		switch s.Criteria[i].Criterion {
		case "RC":
			rc = &s.Criteria[i]
		case "all":
			all = &s.Criteria[i]
		}
	}
	if rc == nil || rc.Candidates != 10 || rc.Survivors != 4 {
		t.Fatalf("bad RC criterion: %+v", s.Criteria)
	}
	if all == nil || all.Survivors != 6 {
		t.Fatalf("bad all criterion: %+v", s.Criteria)
	}
	out := s.Render(5)
	for _, want := range []string{"Effort per technique", "Top 2 levels by time", "Skyline pruning efficacy", "RC"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}
