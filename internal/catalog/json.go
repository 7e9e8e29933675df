package catalog

import (
	"encoding/json"
	"fmt"
	"io"
)

// WriteJSON serializes the catalog (schema plus statistics) so a schema
// can be inspected, versioned, or shared between runs.
func (c *Catalog) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(c)
}

// Bounds ReadJSON puts on a loaded catalog's physical statistics, far beyond
// any real table (PostgreSQL caps a field at 1 GB) and low enough that the
// cost model's products of cardinalities and widths stay finite.
const (
	MaxRows        = 1e15
	MaxColumnWidth = 1 << 30
)

// ReadJSON loads a catalog previously written by WriteJSON, validating
// the statistics' basic invariants.
func ReadJSON(r io.Reader) (*Catalog, error) {
	var c Catalog
	if err := json.NewDecoder(r).Decode(&c); err != nil {
		return nil, fmt.Errorf("catalog: decoding: %w", err)
	}
	if len(c.Rels) == 0 {
		return nil, fmt.Errorf("catalog: no relations")
	}
	for i := range c.Rels {
		rel := &c.Rels[i]
		if rel.Rows < 1 || rel.Rows > MaxRows {
			return nil, fmt.Errorf("catalog: relation %q has %g rows, want [1, %g]", rel.Name, rel.Rows, MaxRows)
		}
		if len(rel.Cols) == 0 {
			return nil, fmt.Errorf("catalog: relation %q has no columns", rel.Name)
		}
		if rel.IndexCol < 0 || rel.IndexCol >= len(rel.Cols) {
			return nil, fmt.Errorf("catalog: relation %q index column %d out of range", rel.Name, rel.IndexCol)
		}
		if rel.IndexCorr < 0 || rel.IndexCorr > 1 {
			return nil, fmt.Errorf("catalog: relation %q correlation %g out of [0,1]", rel.Name, rel.IndexCorr)
		}
		for j := range rel.Cols {
			col := &rel.Cols[j]
			if col.StatsLost {
				// A stats-lost column carries no NDV/Skew (degraded
				// catalogs zero them); only the physical width must hold.
				if col.NDV != 0 || col.Skew != 0 {
					return nil, fmt.Errorf("catalog: column %s.%s is stats-lost but carries statistics", rel.Name, col.Name)
				}
			} else {
				if col.NDV < 1 || col.NDV > rel.Rows {
					return nil, fmt.Errorf("catalog: column %s.%s NDV %g out of [1, rows]", rel.Name, col.Name, col.NDV)
				}
				if col.Skew < 0 {
					return nil, fmt.Errorf("catalog: column %s.%s negative skew", rel.Name, col.Name)
				}
			}
			if col.Width < 1 || col.Width > MaxColumnWidth {
				return nil, fmt.Errorf("catalog: column %s.%s width %d out of [1, %d]", rel.Name, col.Name, col.Width, MaxColumnWidth)
			}
			// ZipfS is a data-generation property, not a statistic, so it is
			// legal on stats-lost columns too; rand.Zipf requires s > 1.
			if col.ZipfS != 0 && col.ZipfS <= 1 {
				return nil, fmt.Errorf("catalog: column %s.%s Zipf exponent %g must be > 1", rel.Name, col.Name, col.ZipfS)
			}
		}
	}
	return &c, nil
}
