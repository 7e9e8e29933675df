package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"sdpopt"
)

// robustCmd runs the cardinality-error robustness sweep: every workload
// query is optimized per technique under a deterministically lying
// estimator (log-normal q-error bands, optionally degraded statistics),
// the chosen plan is re-costed under true statistics, and the resulting
// ρ-under-error grid is printed per topology. -check asserts the reference
// invariants (DP lands exactly on the optimum at band 1 / health 1, no
// technique beats the optimum anywhere) and exits non-zero on violation —
// the CI smoke contract.
func robustCmd(args []string, stdout, stderr io.Writer) error {
	fs := newFlagSet("robust", stderr)
	instances := fs.Int("instances", 3, "instances per topology")
	seed := fs.Int64("seed", 42, "workload, injection and degradation seed")
	budgetMB := fs.Int64("budget", 0, "memory budget in MB (0 = the paper's 1024)")
	skewed := fs.Bool("skewed", false, "use the exponentially-skewed schema")
	bands := fs.String("bands", "1,2,4,8", "comma-separated q-error bands (1 = no error)")
	healths := fs.String("healths", "1,0.5", "comma-separated stats-health fractions in [0,1]")
	mode := fs.String("mode", "both", "what the injector corrupts: relation|predicate|both")
	topos := fs.String("topologies", "", "comma-separated graph-N specs, e.g. chain-8,star-9 (empty = default sweep)")
	exec := fs.Bool("exec", true, "execute the example query to validate the true cost model")
	feedbackPath := fs.String("feedback", "", "replay the measured error factors of this JSONL observation corpus (a serve's -feedback-log) instead of the synthetic -bands; '-' = stdin")
	jsonOut := fs.String("json", "", "also write the report as JSON to this file ('-' = stdout)")
	check := fs.Bool("check", false, "assert the reference invariants and exit non-zero on violation")
	if err := fs.Parse(args); err != nil {
		return err
	}
	m, err := sdpopt.ParseErrorMode(*mode)
	if err != nil {
		return err
	}
	if *check && *feedbackPath != "" {
		return fmt.Errorf("-check asserts the no-error reference invariants; they do not hold under -feedback's replayed error")
	}
	bandVals, err := parseFloats(*bands)
	if err != nil {
		return fmt.Errorf("-bands: %w", err)
	}
	healthVals, err := parseFloats(*healths)
	if err != nil {
		return fmt.Errorf("-healths: %w", err)
	}
	topoSpecs, err := parseTopos(*topos)
	if err != nil {
		return fmt.Errorf("-topologies: %w", err)
	}
	cat := sdpopt.PaperSchema()
	if *skewed {
		cat = sdpopt.SkewedSchema()
	}
	cfg := sdpopt.RobustConfig{
		Cat:        cat,
		Seed:       *seed,
		Instances:  *instances,
		Budget:     *budgetMB << 20,
		Bands:      bandVals,
		Healths:    healthVals,
		Mode:       m,
		Topologies: topoSpecs,
		Exec:       *exec,
	}
	if *feedbackPath != "" {
		f, err := openArg(*feedbackPath)
		if err != nil {
			return err
		}
		defer f.Close()
		observations, skipped, err := sdpopt.ReadFeedbackCorpus(f, stderr)
		if err != nil {
			return err
		}
		if len(observations) == 0 {
			return fmt.Errorf("-feedback: corpus %s holds no readable observations", *feedbackPath)
		}
		if skipped > 0 {
			fmt.Fprintf(stderr, "sdplab robust: skipped %d malformed corpus lines\n", skipped)
		}
		cfg.Empirical = sdpopt.BuildFeedbackProfile(observations)
		fmt.Fprintf(stderr, "sdplab robust: replaying %d observations as empirical error factors\n", len(observations))
	}
	start := time.Now()
	rep, err := sdpopt.RunRobustness(cfg)
	if err != nil {
		return err
	}
	fmt.Fprint(stdout, rep.String())
	fmt.Fprintf(stdout, "\n[robustness sweep completed in %v]\n", time.Since(start).Round(time.Millisecond))
	if *jsonOut != "" {
		w := stdout
		if *jsonOut != "-" {
			f, err := os.Create(*jsonOut)
			if err != nil {
				return err
			}
			defer f.Close()
			w = f
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			return err
		}
	}
	if *check {
		if err := rep.CheckReference(); err != nil {
			return err
		}
		fmt.Fprintln(stdout, "[reference invariants hold: rho = 1 for dp at band 1, rho >= 1 everywhere]")
	}
	return nil
}

func parseFloats(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.ParseFloat(part, 64)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty list")
	}
	return out, nil
}

// parseTopos parses "chain-8,star-9" into sweep specs.
func parseTopos(s string) ([]sdpopt.RobustTopoSpec, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	names := map[string]sdpopt.Topology{
		"chain":     sdpopt.Chain,
		"star":      sdpopt.Star,
		"cycle":     sdpopt.Cycle,
		"clique":    sdpopt.Clique,
		"starchain": sdpopt.StarChain,
	}
	var out []sdpopt.RobustTopoSpec
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(strings.ToLower(part))
		i := strings.LastIndex(part, "-")
		if i < 0 {
			return nil, fmt.Errorf("spec %q is not graph-N", part)
		}
		topo, ok := names[strings.ReplaceAll(part[:i], "-", "")]
		if !ok {
			return nil, fmt.Errorf("unknown topology %q", part[:i])
		}
		n, err := strconv.Atoi(part[i+1:])
		if err != nil || n < 2 {
			return nil, fmt.Errorf("bad relation count in %q", part)
		}
		out = append(out, sdpopt.RobustTopoSpec{Topology: topo, NumRelations: n})
	}
	return out, nil
}
