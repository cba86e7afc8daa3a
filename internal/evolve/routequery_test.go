package evolve

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/esql"
	"repro/internal/exec"
	"repro/internal/scenario"
	"repro/internal/space"
	"repro/internal/warehouse"
)

// queryOf turns a view's adopted definition into the ad-hoc query asking
// for exactly that view, and narrowOf into the query asking for its first
// output column only — the extent-hit and residual/base probes the routed
// fingerprint below sends through every observed version.
func queryOf(def *esql.ViewDef) *esql.ViewDef {
	q := def.Clone()
	q.Name = esql.QueryName
	return q
}

func narrowOf(def *esql.ViewDef) *esql.ViewDef {
	q := def.Clone()
	q.Name = esql.QueryName
	q.Select = q.Select[:1]
	return q
}

// routedFingerprint renders everything a version serves through the MV
// router: per live view the definition, history, and the card+checksum of
// two routed queries (the full view shape and its first column). When sp is
// non-nil the same queries are instead answered by base-only naive
// evaluation over that (quiescent) space — the reference side of the
// differential, sharing none of the router's code path.
func routedFingerprint(v *warehouse.Version, sp *space.Space) (string, error) {
	var b strings.Builder
	for _, vv := range v.Views() {
		fmt.Fprintf(&b, "== %s ==\n%s\n", vv.Name, esql.Print(vv.Def))
		for _, h := range vv.History {
			b.WriteString(h)
			b.WriteByte('\n')
		}
		probes := []struct {
			tag string
			q   *esql.ViewDef
		}{{"full", queryOf(vv.Def)}, {"narrow", narrowOf(vv.Def)}}
		for _, p := range probes {
			var (
				card int
				sum  uint64
			)
			if sp != nil {
				r, err := exec.EvaluateNaive(p.q, sp)
				if err != nil {
					return "", fmt.Errorf("naive %s/%s: %w", vv.Name, p.tag, err)
				}
				card, sum = r.Card(), exec.RowChecksum(r)
			} else {
				rt, err := v.RouteDef(p.q)
				if err != nil {
					return "", fmt.Errorf("route %s/%s: %w", vv.Name, p.tag, err)
				}
				r, err := rt.Execute(context.Background())
				if err != nil {
					return "", fmt.Errorf("execute %s/%s: %w", vv.Name, p.tag, err)
				}
				card, sum = r.Card(), exec.RowChecksum(r)
			}
			fmt.Fprintf(&b, "%s:%d:%016x\n", p.tag, card, sum)
		}
	}
	return b.String(), nil
}

// populatedWarehouse is buildWarehouse plus deterministic data, so routed
// queries return real extents. Populate is a fixed function of row and
// column index: two warehouses built from the same history hold identical
// data, which is what lets routed fingerprints match naive prefix replays
// byte for byte.
func populatedWarehouse(t *testing.T, h *scenario.ChurnHistory) (*warehouse.Warehouse, *space.Space) {
	t.Helper()
	sp, err := h.BuildSpace()
	if err != nil {
		t.Fatal(err)
	}
	if err := scenario.Populate(sp, 40); err != nil {
		t.Fatal(err)
	}
	cfg := warehouse.DefaultConfig()
	cfg.DropVariants = true
	w := warehouse.New(sp, cfg)
	for _, def := range h.Views() {
		if _, err := w.RegisterView(context.Background(), def); err != nil {
			t.Fatal(err)
		}
	}
	return w, sp
}

// TestStressRoutedQueryConsistencyUnderUpdateStream drives the mixed
// workload the delta-maintenance subsystem exists for: one writer streams
// an update-heavy churn history (capability changes interleaved with
// ApplyUpdates batches) through the warehouse while concurrent readers
// acquire versions and route queries the whole time. Every fingerprint a
// reader observes must byte-match a base-only naive replay of some prefix
// of the same event stream — so a reader never sees a torn batch, a stale
// extent, or an extent diverging from what the base relations derive — and
// the versions each reader sees stay monotone. Under -race (make stress)
// this is the proof that copy-on-write data updates need no reader
// quiescing.
func TestStressRoutedQueryConsistencyUnderUpdateStream(t *testing.T) {
	h, err := scenario.UpdateChurn(scenario.UpdateChurnParams{
		Churn: scenario.ChurnParams{
			Families:          2,
			TwinsPerFamily:    2,
			Width:             4,
			Donors:            2,
			Spares:            2,
			SpareAttrs:        2,
			Changes:           20,
			Seed:              17,
			FamilyDeleteRatio: 0.12,
			FamilyRenameRatio: 0.10,
			DonorRatio:        0.10,
			ReplaceableViews:  true,
		},
		Batches:     40,
		BatchSize:   4,
		DeleteRatio: 0.35,
		FamilyBias:  0.7,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Reference side: replay the events one by one against a quiescent
	// twin, fingerprinting every prefix with base-only naive evaluation.
	ref, refSpace := populatedWarehouse(t, h.ChurnHistory)
	fp, err := routedFingerprint(ref.Acquire(), refSpace)
	if err != nil {
		t.Fatal(err)
	}
	prefixes := map[string]bool{fp: true}
	for i, ev := range h.Events {
		if ev.Change != nil {
			if _, err := ref.ApplyChange(context.Background(), *ev.Change); err != nil {
				t.Fatalf("reference event %d (%s): %v", i, ev.Change, err)
			}
		} else if _, err := ref.ApplyUpdates(context.Background(), ev.Updates); err != nil {
			t.Fatalf("reference event %d (update batch): %v", i, err)
		}
		fp, err := routedFingerprint(ref.Acquire(), refSpace)
		if err != nil {
			t.Fatalf("reference prefix %d: %v", i+1, err)
		}
		prefixes[fp] = true
	}
	finalRef, err := routedFingerprint(ref.Acquire(), nil)
	if err != nil {
		t.Fatal(err)
	}

	// Live side: the same events through one writer, readers routing
	// queries against whatever version they acquire, with no coordination.
	live, _ := populatedWarehouse(t, h.ChurnHistory)
	const readers = 4
	readerErrs := make([]error, readers)
	var counts [readers]atomic.Int64
	badFPs := make([]string, readers)
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			var lastSeq uint64
			for {
				select {
				case <-done:
					return
				default:
				}
				v := live.Acquire()
				if v.Seq() == lastSeq {
					continue
				}
				if v.Seq() < lastSeq {
					readerErrs[r] = fmt.Errorf("version seq went backwards: %d after %d", v.Seq(), lastSeq)
					return
				}
				lastSeq = v.Seq()
				fp, err := routedFingerprint(v, nil)
				if err != nil {
					readerErrs[r] = err
					return
				}
				if !prefixes[fp] {
					badFPs[r] = fp
					readerErrs[r] = fmt.Errorf("fingerprint at seq %d matches no prefix replay", v.Seq())
					return
				}
				counts[r].Add(1)
			}
		}(r)
	}
	for i, ev := range h.Events {
		if ev.Change != nil {
			if _, err := live.ApplyChange(context.Background(), *ev.Change); err != nil {
				close(done)
				wg.Wait()
				t.Fatalf("live event %d (%s): %v", i, ev.Change, err)
			}
		} else if _, err := live.ApplyUpdates(context.Background(), ev.Updates); err != nil {
			close(done)
			wg.Wait()
			t.Fatalf("live event %d (update batch): %v", i, err)
		}
	}
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
		ready := true
		for r := 0; r < readers; r++ {
			if counts[r].Load() == 0 && readerErrs[r] == nil {
				ready = false
				break
			}
		}
		if ready {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(done)
	wg.Wait()
	for r, err := range readerErrs {
		if err != nil {
			if badFPs[r] != "" {
				t.Fatalf("reader %d: %v\n%s", r, err, badFPs[r])
			}
			t.Fatalf("reader %d: %v", r, err)
		}
	}

	finalLive, err := routedFingerprint(live.Acquire(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if finalLive != finalRef {
		t.Errorf("final live fingerprint diverges from the full reference replay:\nlive:\n%s\nref:\n%s", finalLive, finalRef)
	}
	total := int64(0)
	for r := 0; r < readers; r++ {
		total += counts[r].Load()
	}
	if total == 0 {
		t.Fatal("readers observed no versions at all — the test exercised nothing")
	}
	t.Logf("readers routed through %d versions under %d mixed events, all matching naive prefix replays", total, len(h.Events))
}

// TestRoutedQueryPrefixConsistencyUnderChurn extends the prefix-consistency
// anchor to the MV routing surface: while a churn history streams through
// an evolution session, concurrent readers continuously acquire versions
// and answer ad-hoc queries through Version.RouteDef. Every routed
// fingerprint any reader observes must byte-match a base-only naive replay
// of some prefix of the same history — so a routed query never sees a
// half-applied pass AND never returns an answer the base relations would
// not — and the versions each reader sees stay monotone. Under -race this
// doubles as the proof that routing (including its per-version route cache)
// is race-free against the evolution writer.
func TestRoutedQueryPrefixConsistencyUnderChurn(t *testing.T) {
	h, err := scenario.Churn(scenario.ChurnParams{
		Families:          2,
		TwinsPerFamily:    2,
		Width:             4,
		Donors:            2,
		Spares:            2,
		SpareAttrs:        2,
		Changes:           60,
		Seed:              31,
		FamilyDeleteRatio: 0.15,
		FamilyRenameRatio: 0.12,
		DonorRatio:        0.10,
		ReplaceableViews:  true,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Reference side: replay change by change, fingerprinting every prefix
	// with base-only naive evaluation.
	ref, refSpace := populatedWarehouse(t, h)
	fp, err := routedFingerprint(ref.Acquire(), refSpace)
	if err != nil {
		t.Fatal(err)
	}
	prefixOf := map[string]int{fp: 0}
	for i, c := range h.Changes {
		if _, err := ref.ApplyChange(context.Background(), c); err != nil {
			t.Fatalf("reference change %d (%s): %v", i, c, err)
		}
		fp, err := routedFingerprint(ref.Acquire(), refSpace)
		if err != nil {
			t.Fatalf("reference prefix %d: %v", i+1, err)
		}
		prefixOf[fp] = i + 1
	}

	// Live side: same history through one session, readers routing queries
	// the whole time.
	live, _ := populatedWarehouse(t, h)
	ses := NewSession(live)
	const readers = 4
	type observation struct {
		seq uint64
		fp  string
	}
	observed := make([][]observation, readers)
	readerErrs := make([]error, readers)
	var counts [readers]atomic.Int64
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			var lastSeq uint64
			for {
				select {
				case <-done:
					return
				default:
				}
				v := live.Acquire()
				if v.Seq() == lastSeq {
					continue
				}
				lastSeq = v.Seq()
				fp, err := routedFingerprint(v, nil)
				if err != nil {
					readerErrs[r] = err
					return
				}
				observed[r] = append(observed[r], observation{seq: v.Seq(), fp: fp})
				counts[r].Add(1)
			}
		}(r)
	}
	if _, err := ses.EvolveBatch(context.Background(), h.Changes); err != nil {
		close(done)
		wg.Wait()
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
		ready := true
		for r := 0; r < readers; r++ {
			if counts[r].Load() == 0 {
				ready = false
				break
			}
		}
		if ready {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(done)
	wg.Wait()
	for r, err := range readerErrs {
		if err != nil {
			t.Fatalf("reader %d: %v", r, err)
		}
	}

	finalFP, err := routedFingerprint(live.Acquire(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := prefixOf[finalFP], len(h.Changes); got != want {
		t.Errorf("final routed fingerprint matches prefix %d, want the full history %d", got, want)
	}

	total := 0
	for r := 0; r < readers; r++ {
		lastPrefix := -1
		var lastSeq uint64
		for _, o := range observed[r] {
			if o.seq <= lastSeq && lastSeq != 0 {
				t.Fatalf("reader %d: version seq not monotone (%d after %d)", r, o.seq, lastSeq)
			}
			lastSeq = o.seq
			p, ok := prefixOf[o.fp]
			if !ok {
				t.Fatalf("reader %d routed a query against a state matching no prefix replay (seq %d):\n%s", r, o.seq, o.fp)
			}
			if p < lastPrefix {
				t.Fatalf("reader %d: observed prefixes not monotone (%d after %d)", r, p, lastPrefix)
			}
			lastPrefix = p
			total++
		}
	}
	if total == 0 {
		t.Fatal("readers observed no versions at all — the test exercised nothing")
	}
	t.Logf("readers routed through %d versions, all matching naive prefix replays of the %d-change history", total, len(h.Changes))
}
