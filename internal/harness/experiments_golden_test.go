package harness

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"
)

// The experiment golden pins the rendered output of every registered
// experiment at `sdplab run -exp <id> -instances 2 -seed 42`, with each
// wall-time cell replaced by a fixed-width token: the paper's tables as an
// oracle, so a refactor that must not change any result shows that it does
// not by passing this test. Seven experiments take 2–11 s each and run only
// under -slow-experiments; the other nineteen take about 6 s together.
// Regenerate the sections that ran with:
//
//	go test ./internal/harness -run TestExperimentsGolden -update [-slow-experiments]
var slowExperimentsFlag = flag.Bool("slow-experiments", false, "also run the slow experiments against testdata/experiments.golden")

const experimentsGoldenPath = "testdata/experiments.golden"

// slowExperiments are the ids left out unless -slow-experiments is set.
var slowExperiments = map[string]bool{
	"tab2.1": true, "tab3.1": true, "tab3.2": true, "tab3.3": true,
	"tab3.4": true, "tab3.5": true, "tab3.6": true,
}

// wallTimeToken stands in for every wall-time cell under the golden.
const wallTimeToken = "<time>"

// readExperimentsGolden splits the golden into its sections by id; each
// opens with a "==> <id> <==" line.
func readExperimentsGolden(t *testing.T) map[string]string {
	buf, err := os.ReadFile(experimentsGoldenPath)
	if os.IsNotExist(err) && *updateTrajectory {
		return map[string]string{}
	}
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	sections := map[string]string{}
	var id string
	var body strings.Builder
	flush := func() {
		if id != "" {
			sections[id] = body.String()
		}
		body.Reset()
	}
	for _, line := range strings.SplitAfter(string(buf), "\n") {
		if rest, ok := strings.CutPrefix(line, "==> "); ok {
			if name, ok := strings.CutSuffix(rest, " <==\n"); ok {
				flush()
				id = name
				continue
			}
		}
		body.WriteString(line)
	}
	flush()
	return sections
}

func TestExperimentsGolden(t *testing.T) {
	saved := wallTime
	wallTime = func(time.Duration, time.Duration) string { return wallTimeToken }
	defer func() { wallTime = saved }()

	want := readExperimentsGolden(t)
	cfg := Config{Instances: 2, Seed: 42}
	ran := 0
	for _, e := range Registry {
		if slowExperiments[e.ID] && !*slowExperimentsFlag {
			continue
		}
		out, err := e.Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		out = strings.TrimSuffix(out, "\n") + "\n"
		ran++
		if *updateTrajectory {
			want[e.ID] = out
			continue
		}
		w, ok := want[e.ID]
		if !ok {
			t.Errorf("%s: no section in %s (regenerate with -update)", e.ID, experimentsGoldenPath)
			continue
		}
		if out != w {
			t.Errorf("%s differs from the golden:\n got:\n%s\nwant:\n%s", e.ID, out, w)
		}
	}
	if !*updateTrajectory {
		return
	}
	var sb strings.Builder
	for _, e := range Registry {
		if out, ok := want[e.ID]; ok {
			fmt.Fprintf(&sb, "==> %s <==\n%s", e.ID, out)
		}
	}
	if err := os.WriteFile(experimentsGoldenPath, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %d experiments (%d this run) to %s", len(want), ran, experimentsGoldenPath)
}
