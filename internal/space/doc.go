// Package space simulates the paper's information space: a set of
// autonomous, semi-cooperative information sources (ISs) holding base
// relations, which notify the warehouse of data updates and capability
// (schema) changes (Section 3.1). The simulator is in-process but
// preserves the paper's distribution model — every relation lives at
// exactly one source, and all cross-source data movement is accounted by
// the maintenance layer.
//
// Paper mapping:
//
//   - space.go — sources, relation placement (Home), and the MKB handle.
//   - change.go — the capability-change taxonomy of Section 3.1 (add /
//     delete / rename of relations and attributes) and its application to
//     both the source relations and the MKB (constraint pruning when a
//     component disappears). A landing re-keys no row: renames relabel
//     (Relation.WithName, Relation.Relabel) and share rows and indexes,
//     add-attribute appends a NULL column to the column vectors, and
//     delete-attribute is the columnar Relation.Project.
//   - stats.go — deterministic population helpers (Populate and the
//     subset/superset variants) used by the scenario generators to make
//     PC containments hold exactly in the materialized data.
package space
