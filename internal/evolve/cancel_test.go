package evolve

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/scenario"
	"repro/internal/space"
	"repro/internal/warehouse"
)

// cancelAfterChanges cancels a context once the n-th capability change has
// landed — OnChange fires at exactly the landing point, so the cancellation
// is observed deterministically by the very next landing attempt.
type cancelAfterChanges struct {
	warehouse.NopObserver
	mu     sync.Mutex
	n      int
	cancel context.CancelFunc
}

func (c *cancelAfterChanges) OnChange(space.Change) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n--
	if c.n == 0 {
		c.cancel()
	}
}

// cancelOnFirstSync cancels during phase 1 of the first pass that ranks
// anything — before any change of that pass lands.
type cancelOnFirstSync struct {
	warehouse.NopObserver
	once   sync.Once
	cancel context.CancelFunc
}

func (c *cancelOnFirstSync) OnSync(string, *core.Ranking) {
	c.once.Do(c.cancel)
}

func cancelChurnHistory(t *testing.T) *scenario.ChurnHistory {
	t.Helper()
	h, err := scenario.Churn(scenario.ChurnParams{
		Families:          2,
		TwinsPerFamily:    3,
		Width:             6,
		Donors:            2,
		Spares:            3,
		SpareAttrs:        4,
		Changes:           80,
		Seed:              31,
		FamilyDeleteRatio: 0.2,
		FamilyRenameRatio: 0.1,
		DonorRatio:        0.1,
		ReplaceableViews:  true,
		AllowDecease:      true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// buildCancelWarehouse builds a drop-variant-enumerating warehouse over h
// reporting to obs (nil for none) and registers h's views.
func buildCancelWarehouse(t *testing.T, h *scenario.ChurnHistory, obs warehouse.Observer) *warehouse.Warehouse {
	t.Helper()
	sp, err := h.BuildSpace()
	if err != nil {
		t.Fatal(err)
	}
	cfg := warehouse.DefaultConfig()
	cfg.DropVariants = true
	cfg.Observer = obs
	w := warehouse.New(sp, cfg)
	for _, def := range h.Views() {
		if _, err := w.RegisterView(context.Background(), def); err != nil {
			t.Fatal(err)
		}
	}
	return w
}

// TestEvolveBatchCancelLandedPrefix is the acceptance test of the
// cancellation contract: cancelling mid-EvolveBatch returns ctx.Err()
// within one coalesced pass, the returned steps cover exactly the landed
// prefix, every landed change has fully adopted/deceased (differentially
// verified against the uncancelled replay of that prefix), and nothing
// after the prefix touched the space.
func TestEvolveBatchCancelLandedPrefix(t *testing.T) {
	for _, cancelAt := range []int{1, 7, 23, 40} {
		h := cancelChurnHistory(t)

		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		w := buildCancelWarehouse(t, h, &cancelAfterChanges{n: cancelAt, cancel: cancel})
		sess := NewSession(w)
		steps, err := sess.EvolveBatch(ctx, h.Changes)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelAt=%d: err = %v, want context.Canceled", cancelAt, err)
		}
		// The landing loop observes ctx before each landing, so the landed
		// prefix is exactly the changes landed before the cancellation —
		// "within one coalesced pass" collapses to "immediately after the
		// triggering change" here.
		if len(steps) != cancelAt {
			t.Fatalf("cancelAt=%d: %d steps landed, want exactly %d", cancelAt, len(steps), cancelAt)
		}

		// Differential check: an uncancelled replay of just the landed
		// prefix must produce an identical warehouse — same survivors, same
		// adopted signatures, same histories — and identical per-step
		// outcomes.
		ref := buildCancelWarehouse(t, h, nil)
		refSess := NewSession(ref)
		refSteps, err := refSess.EvolveBatch(context.Background(), h.Changes[:cancelAt])
		if err != nil {
			t.Fatalf("cancelAt=%d: replay: %v", cancelAt, err)
		}
		var got, want []outcome
		for i, s := range steps {
			got = append(got, outcomesOf(i, s.Results)...)
		}
		for i, s := range refSteps {
			want = append(want, outcomesOf(i, s.Results)...)
		}
		label := "cancelled-vs-replay"
		comparePerChange(t, label, want, got)
		compareFinalState(t, label, ref, w)
	}
}

// TestEvolveBatchCancelDuringPhase1LandsNothing pins the commit-point rule
// from the other side: a cancellation observed while phase 1 is still
// ranking — before any change of the pass landed — aborts with the space
// untouched by that pass.
func TestEvolveBatchCancelDuringPhase1LandsNothing(t *testing.T) {
	h := cancelChurnHistory(t)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w := buildCancelWarehouse(t, h, &cancelOnFirstSync{cancel: cancel})
	sess := NewSession(w)
	steps, err := sess.EvolveBatch(ctx, h.Changes)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(steps) >= len(h.Changes) {
		t.Fatalf("cancellation during phase 1 still landed all %d changes", len(steps))
	}
	// No step of the aborted pass may report an affected view: the pass
	// whose phase 1 triggered the cancellation landed nothing, so every
	// returned step belongs to earlier (skip-only) groups.
	for i, s := range steps {
		if len(s.Results) != 0 {
			t.Fatalf("step %d (%s) reports affected views, but every ranking pass was aborted", i, s.Change)
		}
	}

	// Replaying the landed prefix must reproduce the warehouse exactly.
	ref := buildCancelWarehouse(t, h, nil)
	refSess := NewSession(ref)
	if _, err := refSess.EvolveBatch(context.Background(), h.Changes[:len(steps)]); err != nil {
		t.Fatalf("replay: %v", err)
	}
	compareFinalState(t, "phase1-cancel-vs-replay", ref, w)
}

// cancelAtHook cancels a context from the k-th observer hook of a run,
// whichever hook that is — a rewriting search ranked (before its pass's
// commit point), a change landed, a view adopted or deceased (all past it).
type cancelAtHook struct {
	warehouse.NopObserver
	hooks  atomic.Int64
	k      int64
	cancel context.CancelFunc
}

func (c *cancelAtHook) hook() {
	if c.hooks.Add(1) == c.k {
		c.cancel()
	}
}

func (c *cancelAtHook) OnChange(space.Change)           { c.hook() }
func (c *cancelAtHook) OnSync(string, *core.Ranking)    { c.hook() }
func (c *cancelAtHook) OnAdopt(string, *core.Candidate) { c.hook() }
func (c *cancelAtHook) OnDecease(string, space.Change)  { c.hook() }

// stateFingerprint renders everything a cancelled run may not get wrong: the
// space's relations and schemas, the surviving views, and every registered
// view's decease flag, definition, extent checksum and history — each as the
// writer holds it and as the published version serves it.
func stateFingerprint(w *warehouse.Warehouse, views []string) string {
	var b strings.Builder
	ver := w.Acquire()
	fmt.Fprintf(&b, "live %v, served %v over %v\n", w.ViewNames(), ver.ViewNames(), ver.RelationNames())
	for _, name := range w.Space.RelationNames() {
		fmt.Fprintf(&b, "space %s%v\n", name, w.Space.Relation(name).Schema().Names())
	}
	for _, name := range ver.RelationNames() {
		fmt.Fprintf(&b, "served %s%v\n", name, ver.Relation(name).Schema().Names())
	}
	for _, name := range views {
		v, vv := w.View(name), ver.View(name)
		fmt.Fprintf(&b, "view %s deceased=%v %s %x %q\n", name, v.Deceased, v.Def.Signature(), exec.RowChecksum(v.Extent), v.History)
		fmt.Fprintf(&b, "served %s deceased=%v %s %x %q\n", name, vv.Deceased, vv.Def.Signature(), exec.RowChecksum(vv.Extent), vv.History)
	}
	return b.String()
}

// TestStressCancelAtEveryHook sweeps the cancellation point over every
// observer hook a churn history fires — not chosen cut points — for the
// per-change ApplyChange loop and for one EvolveBatch. Wherever the cancel
// lands, the run must stop with context.Canceled (or have finished), and the
// warehouse must equal the uncancelled replay of exactly the changes it
// reports landed: same space, same survivors, same definitions, extents and
// histories, in the registry and in the published version — so nothing after
// the prefix is visible anywhere, and nothing in it is half-applied.
func TestStressCancelAtEveryHook(t *testing.T) {
	h, err := scenario.Churn(scenario.ChurnParams{
		Families:          2,
		TwinsPerFamily:    2,
		Width:             4,
		Donors:            2,
		Spares:            2,
		SpareAttrs:        3,
		Changes:           60,
		Seed:              31,
		FamilyDeleteRatio: 0.2,
		FamilyRenameRatio: 0.15,
		DonorRatio:        0.1,
		ReplaceableViews:  true,
		AllowDecease:      true,
	})
	if err != nil {
		t.Fatal(err)
	}
	var views []string
	for _, def := range h.Views() {
		views = append(views, def.Name)
	}
	build := func(obs warehouse.Observer) *warehouse.Warehouse {
		sp, err := h.BuildSpace()
		if err != nil {
			t.Fatal(err)
		}
		if err := scenario.Populate(sp, 6); err != nil {
			t.Fatal(err)
		}
		cfg := warehouse.DefaultConfig()
		cfg.DropVariants = true
		cfg.Observer = obs
		w := warehouse.New(sp, cfg)
		for _, def := range h.Views() {
			if _, err := w.RegisterView(context.Background(), def); err != nil {
				t.Fatal(err)
			}
		}
		return w
	}

	// want[n] is the uncancelled replay of exactly the first n changes.
	ref := build(nil)
	want := []string{stateFingerprint(ref, views)}
	for i, c := range h.Changes {
		if _, err := ref.ApplyChange(context.Background(), c); err != nil {
			t.Fatalf("replay change %d (%s): %v", i, c, err)
		}
		want = append(want, stateFingerprint(ref, views))
	}

	drivers := []struct {
		name string
		run  func(context.Context, *warehouse.Warehouse) (landed int, err error)
	}{
		{"ApplyChange", func(ctx context.Context, w *warehouse.Warehouse) (int, error) {
			for i, c := range h.Changes {
				if _, err := w.ApplyChange(ctx, c); err != nil {
					return i, err
				}
			}
			return len(h.Changes), nil
		}},
		{"EvolveBatch", func(ctx context.Context, w *warehouse.Warehouse) (int, error) {
			steps, err := NewSession(w).EvolveBatch(ctx, h.Changes)
			return len(steps), err
		}},
	}
	for _, d := range drivers {
		t.Run(d.name, func(t *testing.T) {
			prefixes := map[int]bool{}
			k := int64(1)
			for ; ; k++ {
				ctx, cancel := context.WithCancel(context.Background())
				obs := &cancelAtHook{k: k, cancel: cancel}
				w := build(obs)
				landed, err := d.run(ctx, w)
				cancel()
				if err != nil && !errors.Is(err, context.Canceled) {
					t.Fatalf("cancel at hook %d: err = %v, want context.Canceled", k, err)
				}
				if err == nil && landed != len(h.Changes) {
					t.Fatalf("cancel at hook %d: no error, yet only %d of %d changes landed", k, landed, len(h.Changes))
				}
				if got := stateFingerprint(w, views); got != want[landed] {
					t.Fatalf("cancel at hook %d: warehouse differs from the replay of its %d landed changes\ngot:\n%s\nwant:\n%s",
						k, landed, got, want[landed])
				}
				prefixes[landed] = true
				if obs.hooks.Load() < k {
					break // the whole history fires fewer than k hooks: swept
				}
			}
			if len(prefixes) < len(h.Changes)/2 {
				t.Fatalf("sweep stopped at only %d distinct prefixes of %d changes", len(prefixes), len(h.Changes))
			}
			t.Logf("swept %d hooks, %d distinct landed prefixes", k-1, len(prefixes))
		})
	}
}
