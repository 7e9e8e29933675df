package harness

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"sdpopt/internal/dp"
	"sdpopt/internal/idp"
	"sdpopt/internal/memo"
	"sdpopt/internal/obs/span"
	"sdpopt/internal/plan"
	"sdpopt/internal/query"
	"sdpopt/internal/tech"
	"sdpopt/internal/workload"
)

// The memo-trajectory golden pins, for every run of DP, SDP, IDP(4) and IDP2
// over a fixed corpus, what the memo decided along the way and not only where
// it ended: the plan (cost bits and a digest of the tree), plans costed,
// classes created, paths retained, current and peak simulated memory, and
// the level a budget abort landed at. Retention order moves PathsRetained,
// SimBytes and PeakSimBytes even when the final plan does not, so a change to
// how the memo holds or builds candidates passes only if it keeps every
// retention decision. Regenerate with:
//
//	go test ./internal/harness -run TestMemoTrajectoryGolden -update
var updateTrajectory = flag.Bool("update", false, "rewrite testdata/trajectory.golden from current behavior")

const trajectoryGoldenPath = "testdata/trajectory.golden"

// trajectoryCase is one query set of the corpus.
type trajectoryCase struct {
	name      string
	spec      workload.Spec
	instances int
	// techs restricts the case to these runners (all four when empty).
	techs []string
}

// trajectoryCorpus is the five cold-enum templates (the benchmark's
// population seeds), Table 1.2's Star-Chain-15 and Table 3.2's Star-15 at the
// experiments' seed, the Clique-25 SDP budget abort of ext.large, and
// routed-slo's Snowflake-16 template under SDP: its two root hubs put JCRs
// in several partitions at once, which no other SDP run here does. Every run
// has the paper's 1 GB budget.
func trajectoryCorpus() []trajectoryCase {
	paper := workload.PaperSchema()
	var out []trajectoryCase
	for i := range coldEnum {
		out = append(out, trajectoryCase{name: "cold-enum/" + coldEnumName(i), spec: coldEnumSpec(i), instances: 2})
	}
	return append(out, []trajectoryCase{
		{name: "tab1.2/star-chain-15", spec: workload.Spec{Cat: paper, Topology: workload.StarChain, NumRelations: 15, Seed: 42}, instances: 2},
		{name: "tab3.2/star-15", spec: workload.Spec{Cat: paper, Topology: workload.Star, NumRelations: 15, Seed: 42}, instances: 1},
		{name: "ext.large/clique-25", spec: workload.Spec{Cat: workload.ExtendedSchema(25), Topology: workload.Clique, NumRelations: 25, Seed: 42},
			instances: 1, techs: []string{"SDP"}},
		{name: "routed-slo/snowflake-16", spec: workload.Spec{Cat: paper, Topology: workload.Snowflake, NumRelations: 16, Seed: populationSeed + 4*101},
			instances: 2, techs: []string{"SDP"}},
	}...)
}

// trajectoryRunners are the four techniques, each run under a root span on
// ctx so a budget abort's level can be read off the level span carrying the
// error.
var trajectoryRunners = []struct {
	name string
	run  func(ctx context.Context, q *query.Query, budget int64) (*plan.Plan, dp.Stats, error)
}{
	{"DP", func(ctx context.Context, q *query.Query, budget int64) (*plan.Plan, dp.Stats, error) {
		return tech.Run(ctx, tech.DP, q, tech.Options{Budget: budget})
	}},
	{"SDP", func(ctx context.Context, q *query.Query, budget int64) (*plan.Plan, dp.Stats, error) {
		return tech.Run(ctx, tech.SDP, q, tech.Options{Budget: budget})
	}},
	{"IDP(4)", func(ctx context.Context, q *query.Query, budget int64) (*plan.Plan, dp.Stats, error) {
		opts := idp.DefaultOptions()
		opts.K, opts.Budget, opts.Ctx = 4, budget, ctx
		return idp.Optimize(q, opts)
	}},
	{"IDP2", func(ctx context.Context, q *query.Query, budget int64) (*plan.Plan, dp.Stats, error) {
		return tech.Run(ctx, tech.IDP2, q, tech.Options{Budget: budget})
	}},
}

// abortLevel returns the level of the last "level" span in the tree that
// carries an error ("-" when none does).
func abortLevel(s *span.SpanJSON) string {
	level := "-"
	if s.Name == "level" && s.Error != "" {
		level = fmt.Sprint(s.Int("level"))
	}
	for i := range s.Children {
		if l := abortLevel(&s.Children[i]); l != "-" {
			level = l
		}
	}
	return level
}

// planDigest hashes a plan tree canonically, costs and cardinalities as raw
// float64 bits.
func planDigest(p *plan.Plan) string {
	h := sha256.New()
	var write func(p *plan.Plan)
	write = func(p *plan.Plan) {
		if p == nil {
			fmt.Fprint(h, "_")
			return
		}
		fmt.Fprintf(h, "(%d r%d o%d c%016x n%016x ", int(p.Op), p.Rel, p.Order, math.Float64bits(p.Cost), math.Float64bits(p.Rows))
		write(p.Left)
		write(p.Right)
		fmt.Fprint(h, ")")
	}
	write(p)
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// collectTrajectory runs the corpus and renders one line per run.
func collectTrajectory(t *testing.T) []string {
	var out []string
	for _, c := range trajectoryCorpus() {
		qs, err := workload.Instances(c.spec, c.instances)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for i, q := range qs {
			for _, r := range trajectoryRunners {
				if len(c.techs) > 0 && !contains(c.techs, r.name) {
					continue
				}
				root := span.New("trajectory")
				p, st, err := r.run(span.NewContext(context.Background(), root), q, memo.DefaultBudget)
				root.Finish()
				line := fmt.Sprintf("%s#%d %s", c.name, i, r.name)
				switch {
				case err == nil:
					line += fmt.Sprintf(" cost=%016x plan=%s", math.Float64bits(p.Cost), planDigest(p))
				case errors.Is(err, memo.ErrBudget):
					tr := root.Trace().Snapshot()
					line += " abort=" + abortLevel(tr.Root)
				default:
					t.Fatalf("%s: %v", line, err)
				}
				m := st.Memo
				line += fmt.Sprintf(" costed=%d classes=%d paths=%d sim=%d peak=%d",
					st.PlansCosted, m.ClassesCreated, m.PathsRetained, m.SimBytes, m.PeakSimBytes)
				out = append(out, line)
			}
		}
	}
	return out
}

func contains(ss []string, s string) bool {
	for _, x := range ss {
		if x == s {
			return true
		}
	}
	return false
}

// TestMemoTrajectoryGolden compares the corpus's runs line by line against
// testdata/trajectory.golden.
func TestMemoTrajectoryGolden(t *testing.T) {
	got := collectTrajectory(t)
	if *updateTrajectory {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(trajectoryGoldenPath, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d runs to %s", len(got), trajectoryGoldenPath)
		return
	}
	buf, err := os.ReadFile(trajectoryGoldenPath)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	want := strings.Split(strings.TrimSuffix(string(buf), "\n"), "\n")
	if len(got) != len(want) {
		t.Fatalf("got %d runs, golden has %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("run %d:\n got %s\nwant %s", i, got[i], want[i])
		}
	}
}
