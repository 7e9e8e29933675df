package feedback

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
	"sync"
)

// CorpusWriter persists observations as an append-only JSONL corpus — the
// training data a learned estimator replays. One observation per line,
// buffered; Flush on graceful shutdown.
type CorpusWriter struct {
	mu  sync.Mutex
	w   *bufio.Writer
	c   io.Closer
	err error
}

// NewCorpusWriter wraps an open writer. If w is also an io.Closer it is
// closed by Close.
func NewCorpusWriter(w io.Writer) *CorpusWriter {
	cw := &CorpusWriter{w: bufio.NewWriterSize(w, 1<<16)}
	if c, ok := w.(io.Closer); ok {
		cw.c = c
	}
	return cw
}

// OpenCorpus opens (appending, creating if absent) a JSONL corpus file —
// append-only by construction: restarts extend the corpus rather than
// truncating history.
func OpenCorpus(path string) (*CorpusWriter, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("feedback: corpus file: %w", err)
	}
	return NewCorpusWriter(f), nil
}

// Append writes observations, one JSON line each. Marshal/write errors are
// sticky and reported on Flush/Close. Nil-safe.
func (cw *CorpusWriter) Append(observations ...Observation) {
	if cw == nil {
		return
	}
	cw.mu.Lock()
	defer cw.mu.Unlock()
	for _, o := range observations {
		b, err := json.Marshal(o)
		if err != nil {
			if cw.err == nil {
				cw.err = err
			}
			continue
		}
		cw.w.Write(b)
		cw.w.WriteByte('\n')
	}
}

// Flush forces buffered lines out without closing; the writer stays usable.
// Nil-safe.
func (cw *CorpusWriter) Flush() error {
	if cw == nil {
		return nil
	}
	cw.mu.Lock()
	defer cw.mu.Unlock()
	err := cw.w.Flush()
	if cw.err != nil && err == nil {
		err = cw.err
	}
	return err
}

// Close flushes and closes the underlying file, if any. Nil-safe.
func (cw *CorpusWriter) Close() error {
	if cw == nil {
		return nil
	}
	cw.mu.Lock()
	defer cw.mu.Unlock()
	err := cw.w.Flush()
	if cw.c != nil {
		if cerr := cw.c.Close(); err == nil {
			err = cerr
		}
	}
	if cw.err != nil && err == nil {
		err = cw.err
	}
	return err
}

// ReadCorpusLenient decodes a JSONL corpus, skipping malformed lines instead
// of aborting, because the common corruption for an append-only log is a
// tail cut off mid-write. Each skipped line
// produces one warning on warn (when non-nil); only a read error from r
// itself is fatal.
func ReadCorpusLenient(r io.Reader, warn io.Writer) (observations []Observation, skipped int, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		var o Observation
		if uerr := json.Unmarshal([]byte(text), &o); uerr != nil || o.Object == "" {
			skipped++
			if warn != nil {
				if uerr == nil {
					uerr = fmt.Errorf("missing object key")
				}
				fmt.Fprintf(warn, "warning: corpus line %d skipped: %v\n", line, uerr)
			}
			continue
		}
		observations = append(observations, o)
	}
	if err := sc.Err(); err != nil {
		return nil, skipped, err
	}
	return observations, skipped, nil
}

// ErrorProfile is a corpus reduced to per-object multiplicative error
// factors: the geometric mean of est/actual per catalog object. A factor of
// 3 means the estimator overestimated that object's cardinalities 3× on
// (geometric) average. internal/ce replays a profile in place of its
// synthetic log-normal factors, making the ρ-under-error grid runnable
// against measured error distributions.
//
// Construction accumulates log-ratios in corpus order and Go's JSON encoder
// emits map keys sorted, so the same corpus always yields a byte-identical
// marshaled profile — the determinism the replay contract pins.
type ErrorProfile struct {
	// Rels maps relation name → geomean est/actual of its scan nodes.
	Rels map[string]float64 `json:"rels"`
	// Preds maps predicate label → geomean est/actual of its join nodes.
	Preds map[string]float64 `json:"preds"`
	// Observations is how many corpus lines the profile absorbed.
	Observations int `json:"observations"`
}

// BuildProfile reduces observations to an ErrorProfile. Non-finite ratios
// are skipped.
func BuildProfile(observations []Observation) *ErrorProfile {
	type acc struct {
		sumLog float64
		n      int
	}
	rels := map[string]*acc{}
	preds := map[string]*acc{}
	count := 0
	for _, o := range observations {
		r := o.Ratio()
		if math.IsNaN(r) || math.IsInf(r, 0) || r <= 0 {
			continue
		}
		var m map[string]*acc
		switch o.Kind {
		case KindRelation:
			m = rels
		case KindPredicate:
			m = preds
		default:
			continue
		}
		a := m[o.Object]
		if a == nil {
			a = &acc{}
			m[o.Object] = a
		}
		a.sumLog += math.Log(r)
		a.n++
		count++
	}
	reduce := func(m map[string]*acc) map[string]float64 {
		out := make(map[string]float64, len(m))
		for k, a := range m {
			out[k] = math.Exp(a.sumLog / float64(a.n))
		}
		return out
	}
	return &ErrorProfile{Rels: reduce(rels), Preds: reduce(preds), Observations: count}
}

// RelFactor returns the profile's error factor for a relation name, 1 when
// unobserved. Nil-safe.
func (p *ErrorProfile) RelFactor(name string) float64 {
	if p == nil {
		return 1
	}
	if f, ok := p.Rels[name]; ok {
		return f
	}
	return 1
}

// PredFactor returns the profile's error factor for a predicate label, 1
// when unobserved. Nil-safe.
func (p *ErrorProfile) PredFactor(label string) float64 {
	if p == nil {
		return 1
	}
	if f, ok := p.Preds[label]; ok {
		return f
	}
	return 1
}

// Summary renders the profile's worst factors, both directions, for CLI
// output.
func (p *ErrorProfile) Summary(topN int) string {
	if p == nil {
		return "no profile\n"
	}
	type kv struct {
		key    string
		factor float64
	}
	var all []kv
	for k, f := range p.Rels {
		all = append(all, kv{k, f})
	}
	for k, f := range p.Preds {
		all = append(all, kv{k, f})
	}
	sort.Slice(all, func(i, j int) bool {
		qi, qj := math.Max(all[i].factor, 1/all[i].factor), math.Max(all[j].factor, 1/all[j].factor)
		if qi != qj {
			return qi > qj
		}
		return all[i].key < all[j].key
	})
	if topN > 0 && len(all) > topN {
		all = all[:topN]
	}
	var b strings.Builder
	fmt.Fprintf(&b, "empirical error profile: %d observations, %d relations, %d predicates\n",
		p.Observations, len(p.Rels), len(p.Preds))
	for _, e := range all {
		dir := "over"
		if e.factor < 1 {
			dir = "under"
		}
		fmt.Fprintf(&b, "  %-28s factor %8.3f (%s)\n", e.key, e.factor, dir)
	}
	return b.String()
}
