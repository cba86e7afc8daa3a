// Package warehouse holds the documented post-commit helper: once a change
// batch has passed its commit point, publication must finish even if the
// caller cancels, so postCommit — and only postCommit — may sever
// cancellation with context.WithoutCancel.
package warehouse

import "context"

// postCommit derives the context used after the commit point; values (trace
// IDs, deadlines' values) survive, cancellation does not.
func postCommit(ctx context.Context) context.Context {
	return context.WithoutCancel(ctx)
}

// Publish runs the committed tail under the post-commit context.
func Publish(ctx context.Context, commit func(context.Context)) {
	commit(postCommit(ctx))
}

// Abort is not a documented helper, so its detach is flagged.
func Abort(ctx context.Context) context.Context {
	return context.WithoutCancel(ctx) // want `context.WithoutCancel outside the documented post-commit helper`
}
