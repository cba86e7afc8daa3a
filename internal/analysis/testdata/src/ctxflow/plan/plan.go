// Package plan is a fixture twin of the engine's hot-path packages: its
// exported functions loop over tuple/batch slices and must consult ctx.
package plan

import (
	"context"

	"relation"
)

// Sum polls ctx around the loop: no findings.
func Sum(ctx context.Context, ts []relation.Tuple) (int, error) {
	total := 0
	for _, t := range ts {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		total += t.V
	}
	return total, nil
}

// SumIgnoringCtx takes a ctx but never consults it.
func SumIgnoringCtx(ctx context.Context, ts []relation.Tuple) int {
	total := 0
	for _, t := range ts { // want `loops over tuples/batches without consulting its ctx parameter`
		total += t.V
	}
	return total
}

// SumNoCtx loops over batches with no ctx parameter at all.
func SumNoCtx(batches []relation.ColumnBatch) int {
	total := 0
	for _, b := range batches { // want `loops over tuples/batches but takes no context.Context`
		total += len(b.Cols)
	}
	return total
}

// sumInternal is unexported: callers poll for it, out of scope.
func sumInternal(ts []relation.Tuple) int {
	total := 0
	for _, t := range ts {
		total += t.V
	}
	return total
}

// Detached manufactures a fresh context in library code.
func Detached(ts []relation.Tuple) context.Context {
	_ = sumInternal(ts)
	return context.Background() // want `context.Background\(\) in library code severs cancellation`
}

// Todo does the same with TODO.
func Todo() context.Context {
	return context.TODO() // want `context.TODO\(\) in library code severs cancellation`
}

// Detach uses WithoutCancel outside the documented post-commit helper.
func Detach(ctx context.Context) context.Context {
	return context.WithoutCancel(ctx) // want `context.WithoutCancel outside the documented post-commit helper`
}
