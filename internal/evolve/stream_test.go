package evolve

import (
	"context"
	"errors"
	"iter"
	"slices"
	"testing"

	"repro/internal/scenario"
	"repro/internal/space"
)

// feed turns a change slice into the pull-based sequence Stream consumes.
func feed(changes []space.Change) iter.Seq[space.Change] {
	return slices.Values(changes)
}

// TestStreamMatchesEvolveBatch is Stream's differential anchor: driving a
// warehouse from a change feed must land the same steps, adopt the same
// definitions, and keep the same survivors as one EvolveBatch over the
// identical history — the same parity the session proves against the
// ApplyChange loop.
func TestStreamMatchesEvolveBatch(t *testing.T) {
	for _, seed := range []int64{3, 17, 44} {
		p := scenario.DefaultChurnParams()
		p.Changes = 90
		p.Seed = seed
		h, err := scenario.Churn(p)
		if err != nil {
			t.Fatal(err)
		}

		ref := buildWarehouse(t, h, 0, true)
		refSess := NewSession(ref)
		refSteps, err := refSess.EvolveBatch(context.Background(), h.Changes)
		if err != nil {
			t.Fatalf("seed %d: batch: %v", seed, err)
		}

		w := buildWarehouse(t, h, 0, true)
		sess := NewSession(w)
		var steps []StepResult
		for step, err := range sess.Stream(context.Background(), feed(h.Changes)) {
			if err != nil {
				t.Fatalf("seed %d: stream: %v", seed, err)
			}
			steps = append(steps, step)
		}

		if len(steps) != len(refSteps) {
			t.Fatalf("seed %d: stream yielded %d steps, batch %d", seed, len(steps), len(refSteps))
		}
		var got, want []outcome
		for i := range steps {
			if steps[i].Change != refSteps[i].Change {
				t.Fatalf("seed %d: step %d change diverged: %s vs %s",
					seed, i, steps[i].Change, refSteps[i].Change)
			}
			got = append(got, outcomesOf(i, steps[i].Results)...)
			want = append(want, outcomesOf(i, refSteps[i].Results)...)
		}
		label := "stream-vs-batch"
		comparePerChange(t, label, want, got)
		compareFinalState(t, label, ref, w)
	}
}

// TestStreamRejectedChangeEndsFeed checks Stream's error tail: landed steps
// are yielded, then one final element carries the *space.ChangeError of the
// rejected change, and the feed pulls nothing further.
func TestStreamRejectedChangeEndsFeed(t *testing.T) {
	p := scenario.DefaultChurnParams()
	p.Changes = 1
	h, err := scenario.Churn(p)
	if err != nil {
		t.Fatal(err)
	}
	w := buildWarehouse(t, h, 0, false)
	sess := NewSession(w)

	valid := space.Change{Kind: space.DeleteAttribute, Rel: "W1", Attr: "A1"}
	bogus := space.Change{Kind: space.DeleteAttribute, Rel: "NoSuchRel", Attr: "X"}
	after := space.Change{Kind: space.DeleteAttribute, Rel: "W1", Attr: "A2"}

	var landed int
	var streamErr error
	for step, err := range sess.Stream(context.Background(), feed([]space.Change{valid, bogus, after})) {
		if err != nil {
			streamErr = err
			break
		}
		if step.Change != valid {
			t.Fatalf("unexpected landed step %s", step.Change)
		}
		landed++
	}
	if landed != 1 {
		t.Fatalf("landed %d steps, want 1", landed)
	}
	var cerr *space.ChangeError
	if !errors.As(streamErr, &cerr) {
		t.Fatalf("stream error = %v, want a *space.ChangeError", streamErr)
	}
	if cerr.Change != bogus {
		t.Fatalf("ChangeError carries %s, want the rejected change %s", cerr.Change, bogus)
	}
	// The change after the rejected one never landed.
	if w.Space.Relation("W1").Schema().IndexOf("A2") < 0 {
		t.Fatal("change after the rejection must not land")
	}
}

// TestStreamConsumerBreakStopsPulling checks that breaking out of the range
// loop stops the feed: changes already landed stay landed, and nothing
// beyond the break is pulled from the source sequence.
func TestStreamConsumerBreakStopsPulling(t *testing.T) {
	p := scenario.DefaultChurnParams()
	p.Changes = 40
	h, err := scenario.Churn(p)
	if err != nil {
		t.Fatal(err)
	}
	w := buildWarehouse(t, h, 0, true)
	sess := NewSession(w)

	pulled := 0
	src := func(yield func(space.Change) bool) {
		for _, c := range h.Changes {
			pulled++
			if !yield(c) {
				return
			}
		}
	}
	seen := 0
	for _, err := range sess.Stream(context.Background(), src) {
		if err != nil {
			t.Fatal(err)
		}
		seen++
		if seen == 3 {
			break
		}
	}
	if seen != 3 {
		t.Fatalf("saw %d steps", seen)
	}
	// The stream buffers at most one coalesced group beyond what it
	// yielded; it must not have drained the whole feed.
	if pulled >= len(h.Changes) {
		t.Fatalf("consumer break still pulled all %d changes", pulled)
	}
}

// TestStreamCancelYieldsCtxErr checks the cancellation tail element and the
// landed-prefix guarantee under Stream.
func TestStreamCancelYieldsCtxErr(t *testing.T) {
	h := cancelChurnHistory(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w := buildCancelWarehouse(t, h, &cancelAfterChanges{n: 5, cancel: cancel})
	sess := NewSession(w)

	var landed []StepResult
	var streamErr error
	for step, err := range sess.Stream(ctx, feed(h.Changes)) {
		if err != nil {
			streamErr = err
			break
		}
		landed = append(landed, step)
	}
	if !errors.Is(streamErr, context.Canceled) {
		t.Fatalf("stream error = %v, want context.Canceled", streamErr)
	}
	if len(landed) != 5 {
		t.Fatalf("landed %d steps, want exactly 5", len(landed))
	}

	// Replay the landed prefix uncancelled and compare final state.
	ref := buildCancelWarehouse(t, h, nil)
	refSess := NewSession(ref)
	if _, err := refSess.EvolveBatch(context.Background(), h.Changes[:len(landed)]); err != nil {
		t.Fatal(err)
	}
	compareFinalState(t, "stream-cancel-vs-replay", ref, w)
}
