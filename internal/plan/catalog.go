package plan

import "repro/internal/relation"

// FixedCatalog is a Catalog over an explicit relation set, estimated at
// their actual cardinalities — the compilation context for plans whose
// inputs are not base relations of any space. The MV router uses it to
// compile a query's residual filter/project over a view's materialized
// extent: the extent is registered under the view's name and the residual
// query scans it like a one-relation database.
type FixedCatalog struct {
	// Rels maps relation names to their instances.
	Rels map[string]*relation.Relation
	// Sigma is the default local selectivity σ (clamped to Table 1's 0.5
	// when out of range).
	Sigma float64
	// JS is the default join selectivity (clamped to Table 1's 0.005 when
	// out of range).
	JS float64
}

// Relation implements Catalog.
func (c FixedCatalog) Relation(name string) *relation.Relation { return c.Rels[name] }

// EstCard implements Catalog.
func (c FixedCatalog) EstCard(string) int { return 0 }

// Selectivities implements Catalog.
func (c FixedCatalog) Selectivities() (sigma, js float64) { return c.Sigma, c.JS }
