package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"sdpopt"
	"sdpopt/internal/harness"
)

// flightAfterSDP serves one SDP request for a star-8 query in process and
// returns the server's /debug/flight.json document.
func flightAfterSDP(t *testing.T) string {
	t.Helper()
	srv, err := sdpopt.NewServer(sdpopt.ServerOptions{Cat: sdpopt.PaperSchema()})
	if err != nil {
		t.Fatal(err)
	}
	qs, err := sdpopt.Instances(sdpopt.WorkloadSpec{Cat: sdpopt.PaperSchema(), Topology: sdpopt.Star, NumRelations: 8, Seed: 42}, 1)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := json.Marshal(map[string]string{"sql": qs[0].SQL(), "technique": "sdp"})
	rr := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/optimize", bytes.NewReader(body)))
	if rr.Code != http.StatusOK {
		t.Fatalf("optimize: %d %s", rr.Code, rr.Body)
	}
	dump, err := json.Marshal(srv.Flight().Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	return string(dump)
}

var completedLine = regexp.MustCompile(`(?m)^\[\S+ completed in [^\]]*\]\n`)

func TestRun(t *testing.T) {
	var ids []string
	for _, e := range harness.Registry {
		ids = append(ids, e.ID)
	}
	// `run -exp tab2.2` prints the harness's own rendering of the worked
	// example — a function of the paper schema alone, pinned by the
	// experiments golden — then a blank line once the "[… completed in …]"
	// line is dropped.
	tab22, err := harness.Lookup("tab2.2")
	if err != nil {
		t.Fatal(err)
	}
	table22, err := tab22.Run(harness.Config{Seed: 42, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	table22 += "\n\n"
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
		{name: "run trace is gone", args: []string{"run", "-exp", "tab2.2", "-trace", "x"}, code: 1, errHas: "-trace"},
		{name: "serve trace is gone", args: []string{"serve", "-trace", "x"}, code: 1, errHas: "-trace"},
		{name: "serve negative shadow size", args: []string{"serve", "-shadow-workers", "-1"}, code: 1, errHas: "shadow sizes must be non-negative"},
		{name: "serve shadow flag without rate", args: []string{"serve", "-shadow-hit-rate", "0.5"}, code: 1, errHas: "require -shadow-rate > 0"},
		{name: "bench is gone", args: []string{"bench"}, code: 2, errHas: "usage:"},
		{name: "load is gone", args: []string{"load"}, code: 2, errHas: "usage:"},
		{name: "no arguments", code: 2, errHas: "usage:"},
		{name: "regret malformed", args: []string{"regret", "-"}, stdin: "{not json", code: 1, errHas: "regret: decoding dump"},
		{name: "feedback malformed", args: []string{"feedback", "-"}, stdin: "{not json", code: 1, errHas: "feedback: decoding dump"},
		{name: "inspect malformed", args: []string{"inspect", "-"}, stdin: "{not json", code: 1, errHas: "decoding flight dump"},
		{name: "inspect summary", args: []string{"inspect", "-summary", "-"}, stdin: flightAfterSDP(t),
			outHas: []string{"Effort per technique", "levels by time", "Skyline pruning efficacy"}},
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
