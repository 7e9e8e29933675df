package catalog_test

import (
	"bytes"
	"math"
	"testing"

	"sdpopt/internal/bits"
	"sdpopt/internal/catalog"
	"sdpopt/internal/cost"
	"sdpopt/internal/query"
)

// FuzzCatalogJSON throws arbitrary bytes at the catalog decoder a server
// loads its schema with. The invariants: it never panics; a catalog it
// accepts writes back to JSON that reads and writes again to the same bytes;
// and an accepted catalog costs a 2-relation join — its first two relations
// (or the first one twice), joined on their indexed columns — to a finite
// cost, so no statistic it lets through can drive the cost model to NaN or
// infinity.
func FuzzCatalogJSON(f *testing.F) {
	cfg := catalog.DefaultConfig()
	cfg.NumRelations = 3
	cfg.ColsPerRelation = 3
	var buf bytes.Buffer
	if err := catalog.MustSynthetic(cfg).WriteJSON(&buf); err != nil {
		f.Fatal(err)
	}
	seeds := []string{
		buf.String(),
		`{"Rels":[{"Name":"r","Rows":10,"Cols":[{"Name":"a","NDV":10,"Width":4}],"IndexCol":0,"IndexCorr":0.5}]}`,
		`{"Rels":[{"Name":"r","Rows":10,"Cols":[{"Name":"a","Width":4,"StatsLost":true,"ZipfS":1.5}],"IndexCol":0}]}`,
		`{"Rels":[{"Name":"r","Rows":1e300,"Cols":[{"Name":"a","NDV":1e300,"Width":2000000000}],"IndexCol":0}]}`,
		`{"Rels":[{"Name":"r","Rows":10,"Cols":[{"Name":"a","NDV":10,"Width":4}],"IndexCol":1}]}`,
		`{"Rels":[{"Name":"r","Rows":0,"Cols":[]}]}`,
		`{"Rels":[]}`,
		`{"Rels":null}`,
		`[`,
		``,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := catalog.ReadJSON(bytes.NewReader(data))
		if err != nil {
			if c != nil {
				t.Fatalf("rejected input still returned a catalog: %v", err)
			}
			return
		}
		var first, second bytes.Buffer
		if err := c.WriteJSON(&first); err != nil {
			t.Fatalf("WriteJSON of an accepted catalog: %v", err)
		}
		back, err := catalog.ReadJSON(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("ReadJSON rejects what WriteJSON wrote: %v\n%s", err, first.Bytes())
		}
		if err := back.WriteJSON(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("round trip changed the catalog:\n%s\nthen\n%s", first.Bytes(), second.Bytes())
		}

		rels := []int{0, 0}
		if c.NumRelations() > 1 {
			rels[1] = 1
		}
		pred := query.Pred{LeftRel: 0, LeftCol: c.Relation(rels[0]).IndexCol, RightRel: 1, RightCol: c.Relation(rels[1]).IndexCol}
		q, err := query.New(c, rels, []query.Pred{pred}, nil)
		if err != nil {
			t.Fatalf("a 2-relation query over an accepted catalog: %v", err)
		}
		m := cost.NewModel(q, cost.DefaultParams())
		a, b := bits.Single(0), bits.Single(1)
		p := m.CheapestJoin(m.AccessPaths(0)[0], m.AccessPaths(1)[0], q.PredsBetween(a, b), m.SetRows(a.Union(b)))
		if math.IsNaN(p.Cost) || math.IsInf(p.Cost, 0) {
			t.Fatalf("the join costs %v", p.Cost)
		}
	})
}
