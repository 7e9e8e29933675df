package server

import (
	"bytes"
	"testing"

	"sdpopt/internal/workload"
)

// FuzzOptimizeBody throws arbitrary bytes at the /optimize body decoder.
// The invariants: it never panics; it either rejects the body (the handler
// answers 400 with the error) or returns a request and a valid query whose
// canonical frame covers every relation.
func FuzzOptimizeBody(f *testing.F) {
	s, err := New(Options{Cat: workload.PaperSchema()})
	if err != nil {
		f.Fatal(err)
	}
	seeds := []string{
		`{"sql":"` + testSQL + `"}`,
		`{"sql":"SELECT * FROM R1 a, R2 b WHERE a.c1 = b.c1","technique":"dp"}`,
		`{"query":{"rels":[0,1,2],"preds":[{"left_rel":0,"left_col":1,"right_rel":1,"right_col":1},{"left_rel":1,"left_col":2,"right_rel":2,"right_col":2}],"filters":[{"rel":2,"col":3,"bound":100}],"order_by":{"rel":0,"col":1}},"technique":"auto"}`,
		`{"query":{"rels":[0,0],"preds":[{"left_rel":0,"left_col":0,"right_rel":1,"right_col":0}]}}`,
		`{"query":{"rels":[0,1]}}`,
		`{"query":{"rels":[99]}}`,
		`{"query":{"rels":[0,1],"preds":[{"left_rel":0,"left_col":-1,"right_rel":1,"right_col":0}]}}`,
		`{"sql":"SELECT * FROM R1","query":{"rels":[0]}}`,
		`{"technique":"genetic","sql":"SELECT * FROM R1"}`,
		`{"workers":-3,"sql":"SELECT * FROM R1"}`,
		`{"bogus":1}`,
		`{}`,
		`[`,
		``,
	}
	for _, b := range seeds {
		f.Add([]byte(b))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		req, q, err := s.decodeOptimize(bytes.NewReader(body))
		if err != nil {
			if req != nil || q != nil {
				t.Fatalf("rejected body still returned a request or query: %v", err)
			}
			return
		}
		if req == nil || q == nil {
			t.Fatal("accepted body returned no request or query")
		}
		cn := q.Canon()
		if len(cn.RelTo) != q.NumRelations() || len(cn.EqTo) != q.NumEqClasses() || cn.Fingerprint != q.Fingerprint() {
			t.Fatalf("accepted query has a malformed canonical frame: %d relations, %+v", q.NumRelations(), cn)
		}
	})
}
