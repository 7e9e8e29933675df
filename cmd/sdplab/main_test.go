package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"sdpopt/internal/harness"
)

// table22 is `sdplab run -exp tab2.2` without its "[… completed in …]" line:
// the worked example is a function of the paper schema alone.
const table22 = `Table 2.2: Multi-way Skyline Pruning (level-3 PruneGroup partition on root hub 1)
JCR                             [Rows, Cost, Sel]  RC CS RS  verdict
{1,2,3}        [         100,        25.91, 2.96e-05]   Y  Y  -  survives
{1,2,4}        [         100,        30.46, 1.97e-05]   -  Y  -  survives
{1,3,4}        [         100,        32.49, 1.31e-05]   Y  Y  -  survives
{1,2,5}        [         100,        36.77, 1.32e-05]   -  -  -  pruned
{1,3,5}        [         100,        38.80, 8.78e-06]   Y  Y  -  survives
{1,4,5}        [         100,        43.36, 5.85e-06]   -  Y  Y  survives
{1,5,6}        [         140,        65.55, 3.65e-06]   -  Y  Y  survives


`

var completedLine = regexp.MustCompile(`(?m)^\[\S+ completed in [^\]]*\]\n`)

func TestRun(t *testing.T) {
	var ids []string
	for _, e := range harness.Registry {
		ids = append(ids, e.ID)
	}
	for _, tc := range []struct {
		name   string
		args   []string
		stdin  string   // becomes os.Stdin for the call
		code   int      // wanted exit code
		stdout string   // wanted stdout without completed-lines, when non-empty
		outHas []string // fragments wanted in stdout
		errHas string   // fragment wanted in stderr
	}{
		{name: "list", args: []string{"list"}, outHas: append(ids, "ext.large")},
		{name: "run without -exp", args: []string{"run"}, code: 1, errHas: "missing -exp"},
		{name: "run unknown id", args: []string{"run", "-exp", "tab9.9"}, code: 1, errHas: `unknown experiment "tab9.9"`},
		{name: "run tab2.2", args: []string{"run", "-exp", "tab2.2"}, stdout: table22},
		{name: "serve negative shadow size", args: []string{"serve", "-shadow-workers", "-1"}, code: 1, errHas: "shadow sizes must be non-negative"},
		{name: "serve shadow flag without rate", args: []string{"serve", "-shadow-hit-rate", "0.5"}, code: 1, errHas: "require -shadow-rate > 0"},
		{name: "bench is gone", args: []string{"bench"}, code: 2, errHas: "usage:"},
		{name: "load is gone", args: []string{"load"}, code: 2, errHas: "usage:"},
		{name: "no arguments", code: 2, errHas: "usage:"},
		{name: "regret malformed", args: []string{"regret", "-"}, stdin: "{not json", code: 1, errHas: "regret: decoding dump"},
		{name: "feedback malformed", args: []string{"feedback", "-"}, stdin: "{not json", code: 1, errHas: "feedback: decoding dump"},
		{name: "inspect malformed", args: []string{"inspect", "-"}, stdin: "{not json", code: 1, errHas: "decoding flight dump"},
		{name: "regret without argument", args: []string{"regret"}, code: 1, errHas: "usage: sdplab regret <regret.json | ->"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.stdin != "" {
				path := filepath.Join(t.TempDir(), "stdin")
				if err := os.WriteFile(path, []byte(tc.stdin), 0o600); err != nil {
					t.Fatal(err)
				}
				f, err := os.Open(path)
				if err != nil {
					t.Fatal(err)
				}
				defer f.Close()
				defer func(old *os.File) { os.Stdin = old }(os.Stdin)
				os.Stdin = f
			}
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != tc.code {
				t.Fatalf("exit code %d, want %d\nstdout: %s\nstderr: %s", code, tc.code, &stdout, &stderr)
			}
			if got := completedLine.ReplaceAllString(stdout.String(), ""); tc.stdout != "" && got != tc.stdout {
				t.Errorf("stdout:\n%q\nwant:\n%q", got, tc.stdout)
			}
			for _, frag := range tc.outHas {
				if !strings.Contains(stdout.String(), frag) {
					t.Errorf("stdout lacks %q:\n%s", frag, &stdout)
				}
			}
			if !strings.Contains(stderr.String(), tc.errHas) {
				t.Errorf("stderr lacks %q:\n%s", tc.errHas, &stderr)
			}
		})
	}
}
