package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	"sdpopt"
)

// mixEntry is one component of a workload: a join-graph template at a fixed
// relation count, requested with one technique and drawn with a weight.
type mixEntry struct {
	topo      sdpopt.Topology
	rels      int
	technique string
	weight    int
	// instances is the number of distinct queries in the population.
	instances int
	// ref names the engine whose cost is the quality reference: "dp" where
	// exhaustive DP is affordable at set-up, "sdp" above that.
	ref string
}

func (m mixEntry) label() string {
	return fmt.Sprintf("%s-%d/%s", strings.ToLower(m.topo.String()), m.rels, m.technique)
}

// workload is a fixed, seeded traffic mix and the server it runs against.
type workload struct {
	name string
	why  string
	mix  []mixEntry
	// open selects an open loop at rate requests per second on a precomputed
	// Poisson schedule; otherwise clients run a closed loop.
	open bool
	rate float64
	// limitMS is the latency limit behind slo_attained_share.
	limitMS float64
	// warmup is the number of unmeasured requests sent before timing; with
	// fill set, the warm-up is instead one pass over every distinct body.
	warmup int
	fill   bool
	// cacheEntries is the server's plan-cache capacity (serve's default is
	// 1024).
	cacheEntries int
	// zipf > 1 draws pool entries by Zipf popularity instead of by weight.
	zipf float64
	// cycle is the length of one Zipf-drawn stretch of the sequence; a
	// weighted mix derives its cycle from the weights instead.
	cycle int
	// spellings sends each query in four equivalent spellings.
	spellings bool
	noCache   bool
	timeoutMS int64
	shadow    bool
	// replayK bounds the traced replay.
	replayK int
	// minWindow is the smallest request count a latency window may hold. The
	// fast workloads get ten windows whose 99th percentile has twenty samples
	// beyond it each. cold-enum completes some 1 600 requests in a run and
	// no stall reaches its limit, so it is one window with sixteen beyond.
	// routed-slo completes 2 400 against a limit a stall does reach: its
	// windows hold 240, and it is the ten together that put ten samples and
	// more beyond the reported median of their percentiles.
	minWindow int
}

// The mixes place the median and the 99th percentile inside one latency class
// each, away from a class boundary, so that a percentile does not jump
// between classes from one seed to the next.
var workloads = []workload{
	{
		name: "cold-enum",
		why:  "every request bypasses the cache with an explicit engine, so enumeration, costing and the memo are nearly all of each request and serving-path changes must not show",
		mix: []mixEntry{
			{sdpopt.Star, 12, "sdp", 3, 8, "dp"},
			{sdpopt.Cycle, 12, "dp", 1, 8, "dp"},
			{sdpopt.StarChain, 15, "sdp", 4, 8, "sdp"},
			{sdpopt.Star, 10, "dp", 1, 8, "dp"},
			{sdpopt.Chain, 20, "dp", 1, 8, "dp"},
		},
		limitMS: 400, warmup: 40, cacheEntries: 1024, noCache: true,
		replayK: 200, minWindow: 1000,
	},
	{
		name: "warm-hit",
		why:  "64 queries in 4 spellings against a 1024-entry cache: every measured request is a hit, so parse, canonicalize, lookup, remap, render, encode and HTTP do all the work and the engines none",
		mix: []mixEntry{
			{sdpopt.Star, 7, "sdp", 1, 16, "dp"},
			{sdpopt.Star, 12, "sdp", 1, 16, "dp"},
			{sdpopt.Chain, 20, "sdp", 1, 16, "dp"},
			{sdpopt.StarChain, 15, "sdp", 1, 16, "sdp"},
		},
		limitMS: 5, fill: true, cacheEntries: 1024, spellings: true,
		replayK: 2000, minWindow: 2000,
	},
	{
		name: "cache-churn",
		why:  "2100 small queries by Zipf(1.1) popularity against a 256-entry cache: hits beside miss, fill, evict and singleflight, where per-run fixed cost outweighs enumeration",
		mix: []mixEntry{
			{sdpopt.Star, 6, "sdp", 1, 700, "dp"},
			{sdpopt.Chain, 8, "sdp", 1, 700, "dp"},
			{sdpopt.StarChain, 8, "sdp", 1, 700, "dp"},
		},
		limitMS: 20, warmup: 2000, cacheEntries: 256, zipf: 1.1, cycle: 2048,
		replayK: 2000, minWindow: 2000,
	},
	{
		name: "routed-slo",
		why:  "technique auto under a 100 ms deadline at a fixed Poisson rate with the shadow regret layer on: the router, greedy, IDP2 and the deadline ladder do the work and quality trades against latency",
		mix: []mixEntry{
			{sdpopt.Star, 7, "auto", 3, 6, "dp"},
			{sdpopt.Star, 12, "auto", 2, 6, "dp"},
			{sdpopt.Chain, 12, "auto", 3, 6, "dp"},
			{sdpopt.StarChain, 15, "auto", 2, 6, "sdp"},
			{sdpopt.Snowflake, 16, "auto", 1, 6, "sdp"},
			{sdpopt.Star, 14, "auto", 1, 6, "sdp"},
		},
		open: true, rate: 120, limitMS: 100, warmup: 150, cacheEntries: 1024,
		noCache: true, timeoutMS: 100, shadow: true,
		replayK: 2000, minWindow: 160,
	},
}

func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// Wire format of POST /optimize, kept here so the benchmark speaks to the
// service as any client would.
type querySpec struct {
	Rels    []int        `json:"rels"`
	Preds   []predSpec   `json:"preds"`
	Filters []filterSpec `json:"filters,omitempty"`
	OrderBy *orderSpec   `json:"order_by,omitempty"`
}

type predSpec struct {
	LeftRel  int `json:"left_rel"`
	LeftCol  int `json:"left_col"`
	RightRel int `json:"right_rel"`
	RightCol int `json:"right_col"`
}

type filterSpec struct {
	Rel   int   `json:"rel"`
	Col   int   `json:"col"`
	Bound int64 `json:"bound"`
}

type orderSpec struct {
	Rel int `json:"rel"`
	Col int `json:"col"`
}

type optimizeRequest struct {
	SQL       string     `json:"sql,omitempty"`
	Query     *querySpec `json:"query,omitempty"`
	Technique string     `json:"technique,omitempty"`
	TimeoutMS int64      `json:"timeout_ms,omitempty"`
	NoCache   bool       `json:"no_cache,omitempty"`
}

// optimizeResponse holds the fields of the reply the benchmark checks or
// counts; the decoder skips the rest.
type optimizeResponse struct {
	Technique      string  `json:"technique"`
	RouteReason    string  `json:"route_reason"`
	Source         string  `json:"source"`
	Cost           float64 `json:"cost"`
	Shape          string  `json:"shape"`
	BudgetExceeded bool    `json:"budget_exceeded"`
	Error          string  `json:"error"`
	ServerNS       int64   `json:"server_ns"`
}

// poolEntry is one distinct query of a workload with everything needed to
// send it and to check the answer.
type poolEntry struct {
	label     string
	technique string
	ref       string
	// queries holds the query as generated and, with spellings, a copy with
	// relations permuted and predicates reordered and flipped.
	queries []*sdpopt.Query
	// requests and bodies are parallel: the decoded form feeds the staged
	// replay, the encoded form goes over the wire.
	requests []optimizeRequest
	bodies   [][]byte
	// fingerprints is parallel to queries; the spellings of one query share
	// one fingerprint unless canonicalization was truncated.
	fingerprints []string
	relNames     []string // sorted
	refCost      float64
}

// reqRef addresses one request body of the pool.
type reqRef struct {
	entry    int32
	spelling int32
}

// pool is a workload's input: the distinct queries and the seeded request
// sequence over them. Clients walk through sequence and wrap around.
type pool struct {
	entries  []poolEntry
	sequence []reqRef
	// cycle is the length of the stretches sequence is made of. Every
	// stretch of a weighted mix holds the same requests in another order, so
	// per-cycle rates compare across a run and across seeds.
	cycle int
	// canonSplit counts entries whose spellings did not share a fingerprint.
	canonSplit int
}

// populationSeed generates every workload's queries. The population is
// fixed, as the schema is: SDP's work on two instances of one template
// differs by a third, so pools that changed with --seed would make two runs
// incomparable, not independent. --seed draws what a client population
// would vary: the order of requests, their spellings, which queries are
// popular, and the arrival times.
const populationSeed = 20070415

// sequenceCycles is how many cycles the sequence holds before clients wrap
// around.
const sequenceCycles = 64

func scaled(n int, scale float64) int {
	s := int(math.Ceil(float64(n) * scale))
	if s < 1 {
		s = 1
	}
	return s
}

// buildPool generates the workload's queries and, from seed, its request
// sequence. scale < 1 shrinks instance counts for smoke tests.
func buildPool(cat *sdpopt.Catalog, w *workload, seed int64, scale float64) (*pool, error) {
	rng := rand.New(rand.NewSource(seed*7919 + 17))
	p := &pool{}
	var weights []int
	for mi, m := range w.mix {
		qs, err := sdpopt.Instances(sdpopt.WorkloadSpec{
			Cat:          cat,
			Topology:     m.topo,
			NumRelations: m.rels,
			Seed:         populationSeed + int64(mi)*101,
		}, scaled(m.instances, scale))
		if err != nil {
			return nil, fmt.Errorf("%s: %s: %w", w.name, m.label(), err)
		}
		for _, q := range qs {
			e := poolEntry{label: m.label(), technique: m.technique, ref: m.ref, queries: []*sdpopt.Query{q}}
			if w.spellings {
				pq, err := permuted(q, rng)
				if err != nil {
					return nil, fmt.Errorf("%s: %s: permuted spelling: %w", w.name, m.label(), err)
				}
				e.queries = append(e.queries, pq)
			}
			for i := range q.Rels {
				e.relNames = append(e.relNames, q.Relation(i).Name)
			}
			sort.Strings(e.relNames)
			for _, sq := range e.queries {
				e.fingerprints = append(e.fingerprints, sdpopt.QueryFingerprint(sq))
				base := optimizeRequest{Technique: m.technique, TimeoutMS: w.timeoutMS, NoCache: w.noCache}
				if w.spellings {
					sqlReq := base
					sqlReq.SQL = sq.SQL()
					e.requests = append(e.requests, sqlReq)
				}
				base.Query = toSpec(sq)
				e.requests = append(e.requests, base)
			}
			for _, r := range e.requests {
				b, err := json.Marshal(r)
				if err != nil {
					return nil, err
				}
				e.bodies = append(e.bodies, b)
			}
			if len(e.fingerprints) > 1 && e.fingerprints[0] != e.fingerprints[1] {
				p.canonSplit++
			}
			p.entries = append(p.entries, e)
			weights = append(weights, m.weight)
		}
	}
	if w.zipf > 1 {
		p.cycle = scaled(w.cycle, scale)
		p.sequence = zipfSequence(rng, p.entries, len(w.mix), w.zipf, p.cycle*sequenceCycles)
	} else {
		p.sequence, p.cycle = weightedSequence(rng, p.entries, weights)
	}
	return p, nil
}

// weightedSequence returns sequenceCycles cycles, each holding every entry
// weight times in a freshly shuffled order, and the cycle length. Spellings
// rotate from one cycle to the next, so each is sent equally often.
func weightedSequence(rng *rand.Rand, entries []poolEntry, weights []int) ([]reqRef, int) {
	var cycle []int32
	for e := range entries {
		for k := 0; k < weights[e]; k++ {
			cycle = append(cycle, int32(e))
		}
	}
	seq := make([]reqRef, 0, len(cycle)*sequenceCycles)
	for c := 0; c < sequenceCycles; c++ {
		rng.Shuffle(len(cycle), func(i, j int) { cycle[i], cycle[j] = cycle[j], cycle[i] })
		for i, e := range cycle {
			seq = append(seq, reqRef{entry: e, spelling: int32((c + i) % len(entries[e].bodies))})
		}
	}
	return seq, len(cycle)
}

// zipfSequence draws n entries by Zipf popularity. Ranks go round the mix
// entries in turn, so every template is equally popular, and within a
// template the seed decides which instance gets which rank.
func zipfSequence(rng *rand.Rand, entries []poolEntry, templates int, zipf float64, n int) []reqRef {
	per := len(entries) / templates // instances per template; entries are grouped by template
	order := make([][]int, templates)
	for t := range order {
		order[t] = rng.Perm(per)
	}
	cum := make([]float64, 0, per*templates)
	byRank := make([]int32, 0, per*templates)
	total := 0.0
	for r := 0; r < per*templates; r++ {
		t := r % templates
		total += 1 / math.Pow(float64(r+1), zipf)
		cum = append(cum, total)
		byRank = append(byRank, int32(t*per+order[t][r/templates]))
	}
	seq := make([]reqRef, n)
	for i := range seq {
		r := sort.SearchFloat64s(cum, rng.Float64()*total)
		if r >= len(byRank) {
			r = len(byRank) - 1
		}
		e := byRank[r]
		seq[i] = reqRef{entry: e, spelling: int32(i % len(entries[e].bodies))}
	}
	return seq
}

// permuted returns q spelled differently: relations in a shuffled order,
// user-written predicates shuffled and randomly flipped. Implied predicates
// are dropped; the query constructor re-derives them.
func permuted(q *sdpopt.Query, rng *rand.Rand) (*sdpopt.Query, error) {
	n := len(q.Rels)
	to := rng.Perm(n) // to[old] = new
	rels := make([]int, n)
	for old, nw := range to {
		rels[nw] = q.Rels[old]
	}
	var preds []sdpopt.Pred
	for _, p := range q.Preds {
		if p.Implied {
			continue
		}
		np := sdpopt.Pred{LeftRel: to[p.LeftRel], LeftCol: p.LeftCol, RightRel: to[p.RightRel], RightCol: p.RightCol}
		if rng.Intn(2) == 0 {
			np = sdpopt.Pred{LeftRel: np.RightRel, LeftCol: np.RightCol, RightRel: np.LeftRel, RightCol: np.LeftCol}
		}
		preds = append(preds, np)
	}
	rng.Shuffle(len(preds), func(i, j int) { preds[i], preds[j] = preds[j], preds[i] })
	filters := make([]sdpopt.Filter, len(q.Filters))
	for i, f := range q.Filters {
		filters[i] = sdpopt.Filter{Rel: to[f.Rel], Col: f.Col, Bound: f.Bound}
	}
	var ob *sdpopt.OrderSpec
	if q.OrderBy != nil {
		ob = &sdpopt.OrderSpec{Rel: to[q.OrderBy.Rel], Col: q.OrderBy.Col}
	}
	return sdpopt.NewFilteredQuery(q.Cat, rels, preds, filters, ob)
}

// toSpec serializes a query into the request's query-JSON shape.
func toSpec(q *sdpopt.Query) *querySpec {
	spec := &querySpec{Rels: append([]int(nil), q.Rels...)}
	for _, p := range q.Preds {
		if p.Implied {
			continue
		}
		spec.Preds = append(spec.Preds, predSpec{LeftRel: p.LeftRel, LeftCol: p.LeftCol, RightRel: p.RightRel, RightCol: p.RightCol})
	}
	for _, f := range q.Filters {
		spec.Filters = append(spec.Filters, filterSpec{Rel: f.Rel, Col: f.Col, Bound: f.Bound})
	}
	if q.OrderBy != nil {
		spec.OrderBy = &orderSpec{Rel: q.OrderBy.Rel, Col: q.OrderBy.Col}
	}
	return spec
}

// arrivalSchedule returns Poisson arrival offsets in nanoseconds covering
// window seconds at rate per second, from seed alone.
func arrivalSchedule(seed int64, rate, window float64) []int64 {
	rng := rand.New(rand.NewSource(seed*104729 + 3))
	var out []int64
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		if t >= window {
			return out
		}
		out = append(out, int64(t*1e9))
	}
}
