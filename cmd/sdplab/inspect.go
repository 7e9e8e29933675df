package main

import (
	"fmt"
	"io"
	"strings"
	"time"

	"sdpopt"
)

// inspectCmd renders a flight-recorder dump — the /debug/flight.json
// document saved while debugging a slow or failed request — as the span
// trees the server shows at /debug/requests, followed by aggregate tables
// over those trees: effort per technique, levels by time, and skyline
// pruning efficacy.
func inspectCmd(args []string, stdout, stderr io.Writer) error {
	fs := newFlagSet("inspect", stderr)
	top := fs.Int("top", 5, "levels to list in the per-level table")
	traceID := fs.String("trace", "", "render only traces whose ID starts with this prefix")
	summaryOnly := fs.Bool("summary", false, "print only the aggregate tables, not the span trees")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: sdplab inspect [-top N] [-trace PREFIX] [-summary] <flight.json | ->")
	}
	f, err := openArg(fs.Arg(0))
	if err != nil {
		return err
	}
	defer f.Close()
	dump, err := sdpopt.ReadFlightDump(f)
	if err != nil {
		return err
	}

	traces := dump.Traces()
	if *traceID != "" {
		kept := traces[:0]
		for _, t := range traces {
			if strings.HasPrefix(t.TraceID, *traceID) {
				kept = append(kept, t)
			}
		}
		traces = kept
		if len(traces) == 0 {
			return fmt.Errorf("no trace with ID prefix %q in dump", *traceID)
		}
	}

	fmt.Fprintf(stdout, "flight dump at %s: %d started, %d finished, %d active, %d slow (>= %v), %d errored\n\n",
		dump.Time.Format(time.RFC3339), dump.Counts.Started, dump.Counts.Finished,
		dump.Counts.Active, dump.Counts.Slow, time.Duration(dump.Config.SlowThresholdNS), dump.Counts.Errored)

	if !*summaryOnly {
		for i := range traces {
			fmt.Fprintln(stdout, traces[i].Render())
		}
	}

	fmt.Fprint(stdout, sdpopt.SummarizeTrace(traces).Render(*top))
	return nil
}
