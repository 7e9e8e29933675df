package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
)

// goldenPerWorkload is how many leading entries of each workload's query
// population golden.json pins: enough to notice a generator, canonicalization
// or cost-model change, few enough to keep the file readable. The population
// does not depend on --seed, so every full-scale run is checked.
const goldenPerWorkload = 8

//go:embed golden.json
var goldenJSON []byte

// goldenEntry freezes one query of the population. Request is the digest of
// the request body as generated: the input itself, whatever the system
// makes of it. Fingerprint and RefCost are what the system made of it when
// the file was written.
type goldenEntry struct {
	Label       string  `json:"label"`
	Request     string  `json:"request_sha256"`
	Fingerprint string  `json:"fingerprint"`
	Ref         string  `json:"ref"`
	RefCost     float64 `json:"ref_cost"`
}

func goldenOf(p *pool) []goldenEntry {
	var out []goldenEntry
	for i := 0; i < len(p.entries) && i < goldenPerWorkload; i++ {
		e := &p.entries[i]
		digest := sha256.Sum256(e.bodies[0])
		out = append(out, goldenEntry{Label: e.label, Request: hex.EncodeToString(digest[:]), Fingerprint: e.fingerprints[0], Ref: e.ref, RefCost: e.refCost})
	}
	return out
}

// checkGolden compares a full-scale pool with the committed file. A request
// that differs means the generator no longer produces the inputs earlier
// results were measured on, so the run is refused; regenerate with
// -update-golden in a change of its own. A fingerprint or a reference cost
// that differs means the system reads the same input differently, which a
// change to canonicalization or to the cost model does on purpose: the run
// goes on, and says that plan_cost_ratio_geomean is no longer comparable.
func checkGolden(cfg config, refs *pool) error {
	if cfg.scale != 1 {
		return nil
	}
	var golden map[string][]goldenEntry
	if err := json.Unmarshal(goldenJSON, &golden); err != nil {
		return fmt.Errorf("golden.json: %w", err)
	}
	want, got := golden[cfg.w.name], goldenOf(refs)
	if len(want) != len(got) {
		return fmt.Errorf("%w: golden.json pins %d entries of %s, the pool has %d", errInvalid, len(want), cfg.w.name, len(got))
	}
	for i := range want {
		if want[i].Label != got[i].Label || want[i].Request != got[i].Request {
			return fmt.Errorf("%w: %s entry %d is %s %s, golden.json has %s %s: the generated pool changed",
				errInvalid, cfg.w.name, i, got[i].Label, got[i].Request, want[i].Label, want[i].Request)
		}
		if want[i].Fingerprint != got[i].Fingerprint {
			fmt.Fprintf(stderr, "benchmark: %s entry %d (%s) has fingerprint %s, golden.json has %s: canonicalization changed\n",
				cfg.w.name, i, got[i].Label, got[i].Fingerprint, want[i].Fingerprint)
		}
		if math.Abs(want[i].RefCost-got[i].RefCost) > relTol*want[i].RefCost {
			fmt.Fprintf(stderr, "benchmark: %s entry %d (%s) has %s reference cost %v, golden.json has %v: plan_cost_ratio_geomean is not comparable with earlier results\n",
				cfg.w.name, i, got[i].Label, got[i].Ref, got[i].RefCost, want[i].RefCost)
		}
	}
	return nil
}

// updateGolden rewrites path from the freshly generated populations.
func updateGolden(path string, clients int) error {
	golden := map[string][]goldenEntry{}
	for i := range workloads {
		cfg := config{w: &workloads[i], seed: 1, scale: 1, clients: clients}
		p, err := referencePool(cfg, goldenPerWorkload)
		if err != nil {
			return err
		}
		golden[cfg.w.name] = goldenOf(p)
	}
	b, err := json.MarshalIndent(golden, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
