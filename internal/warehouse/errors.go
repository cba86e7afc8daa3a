package warehouse

import (
	"errors"
	"fmt"
)

// Sentinel errors of the view registry and synchronization pipeline. They
// are matched with errors.Is; call sites wrap them with the view name for
// context.
var (
	// ErrViewNotFound reports a lookup of a view name that was never
	// registered.
	ErrViewNotFound = errors.New("view not found")
	// ErrViewDeceased reports an operation on a view that a capability
	// change left without any legal rewriting (the paper's terminal state).
	ErrViewDeceased = errors.New("view deceased")
	// ErrNoRewriting reports that a capability change left a view without
	// any legal rewriting — the reason a view deceases.
	ErrNoRewriting = errors.New("no legal rewriting")
	// ErrDuplicateView reports registering a view name twice.
	ErrDuplicateView = errors.New("view already defined")
)

// Err returns nil for a surviving or unaffected view and an error wrapping
// ErrNoRewriting for a deceased one, so batch drivers can fold per-view
// outcomes into error flows with errors.Is(err, ErrNoRewriting).
func (r SyncResult) Err() error {
	if !r.Deceased {
		return nil
	}
	return fmt.Errorf("warehouse: view %q: %w", r.ViewName, ErrNoRewriting)
}
