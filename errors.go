package eve

import (
	"repro/internal/esql"
	"repro/internal/maintain"
	"repro/internal/space"
	"repro/internal/warehouse"
)

// Typed error taxonomy of the v2 API. Every error the system returns for a
// recognizable failure mode either is one of these sentinels (match with
// errors.Is) or is a typed error carrying structured context (match with
// errors.As); the stringly fmt.Errorf surface of v1 survives only for
// failures with no meaningful program response.
var (
	// ErrViewNotFound reports a lookup of a view name that was never
	// registered (System.GetView).
	ErrViewNotFound = warehouse.ErrViewNotFound
	// ErrViewDeceased reports an operation on a view that a capability
	// change left without any legal rewriting.
	ErrViewDeceased = warehouse.ErrViewDeceased
	// ErrNoRewriting reports that a capability change left a view without
	// any legal rewriting — SyncResult.Err wraps it for deceased outcomes.
	ErrNoRewriting = warehouse.ErrNoRewriting
	// ErrDuplicateView reports defining a view name twice.
	ErrDuplicateView = warehouse.ErrDuplicateView
	// ErrUnknownRelation reports a data update (ApplyUpdates) addressed to
	// a relation the information space does not hold.
	ErrUnknownRelation = maintain.ErrUnknownRelation
)

// Typed errors carrying structured context, for errors.As.
type (
	// ParseError is a lexical or syntactic E-SQL error with the byte
	// offset where parsing failed. ParseView and DefineView return it for
	// malformed sources.
	ParseError = esql.ParseError
	// ChangeError wraps a capability change the information space
	// rejected, together with the reason. ApplyChange, EvolveBatch, and
	// Stream return it when a change of a batch cannot land; the landed
	// prefix before it stays applied.
	ChangeError = space.ChangeError
)
