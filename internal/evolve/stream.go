package evolve

import (
	"context"
	"iter"

	"repro/internal/space"
)

// maxStreamGroup bounds how many consecutive compatible changes Stream
// coalesces into one pass before flushing anyway. Without a bound, an
// unbounded feed of mutually compatible changes (e.g. churn that misses
// every view) would buffer forever and never yield a result; with it, the
// latency between a change arriving and its StepResult being yielded is at
// most one maxStreamGroup-sized pass.
const maxStreamGroup = 64

// Stream drives the session from an unbounded change feed: changes are
// pulled from the sequence as needed, consecutive compatible changes are
// coalesced into single synchronization passes exactly as
// EvolveBatch coalesces them, and one StepResult per landed change is
// yielded in feed order. It is the push-based dual of EvolveBatch for
// drivers that do not hold the whole change history in memory — a CDC feed,
// a schema-registry subscription, a generator.
//
// A pass flushes when the next change is incompatible with the pending
// group, when the group reaches an internal size bound, or when the feed
// ends — so results lag their changes by at most one coalesced pass.
//
// The sequence ends after the first error: every landed change's StepResult
// is yielded first, then one final (zero StepResult, err) element reports
// the failure — a space rejection (as a *space.ChangeError), an adopt
// failure, or ctx.Err() after a cancellation. The landed-prefix guarantee
// matches EvolveBatch: cancelling mid-feed stops within one coalesced pass,
// with every yielded step fully adopted and nothing after the prefix
// landed. A consumer that breaks out of the range loop simply stops the
// feed; changes already landed stay landed, unprocessed buffered changes
// never land.
func (s *Session) Stream(ctx context.Context, changes iter.Seq[space.Change]) iter.Seq2[StepResult, error] {
	return func(yield func(StepResult, error) bool) {
		next, stop := iter.Pull(changes)
		defer stop()

		var group []*member
		// flush processes the pending group and yields its steps; it
		// returns false when iteration must end (consumer break or error
		// yielded).
		flush := func() bool {
			if len(group) == 0 {
				return true
			}
			res, err := s.pass(ctx, group)
			group = group[:0]
			for _, step := range res {
				if !yield(step, nil) {
					return false
				}
			}
			if err != nil {
				yield(StepResult{}, err)
				return false
			}
			return true
		}

		for {
			if err := ctx.Err(); err != nil {
				// Changes still buffered have not landed; report the
				// cancellation and end the feed without them.
				yield(StepResult{}, err)
				return
			}
			c, ok := next()
			if !ok {
				flush()
				return
			}
			m := s.newMember(c)
			if len(group) > 0 && !compatible(group, m) {
				if !flush() {
					return
				}
				// The flush adopted rewritings and possibly pruned views:
				// re-footprint the change against the post-pass state, like
				// EvolveBatch re-members the head of each new group.
				m = s.newMember(c)
			}
			group = append(group, m)
			if len(group) >= maxStreamGroup && !flush() {
				return
			}
		}
	}
}
