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
	"repro/internal/scenario"
	"repro/internal/warehouse"
)

// versionFingerprint renders everything a published version serves — live
// view names in registration order, their printed definitions, their full
// synchronization histories, and their materialized extents — into one
// byte string, so two versions are byte-identical exactly when a reader
// could not tell them apart. It returns an error instead of failing the
// test because it also runs on reader goroutines, where t.Fatalf is not
// allowed.
func versionFingerprint(v *warehouse.Version) (string, error) {
	var b strings.Builder
	for _, vv := range v.Views() {
		fmt.Fprintf(&b, "== %s ==\n%s\n", vv.Name, esql.Print(vv.Def))
		for _, h := range vv.History {
			b.WriteString(h)
			b.WriteByte('\n')
		}
		ext, err := v.Extent(vv.Name)
		if err != nil {
			return "", fmt.Errorf("fingerprint %s: %w", vv.Name, err)
		}
		b.WriteString(ext.String())
	}
	return b.String(), nil
}

// mustFingerprint is versionFingerprint for the main test goroutine.
func mustFingerprint(t *testing.T, v *warehouse.Version) string {
	t.Helper()
	fp, err := versionFingerprint(v)
	if err != nil {
		t.Fatal(err)
	}
	return fp
}

// TestVersionPrefixConsistencyUnderChurn is the differential anchor of the
// epoch-publication layer: while a randomized ≥100-change churn history
// streams through an evolution session, concurrent readers continuously
// acquire published versions. Every version any reader observes must be
// byte-identical to some prefix replay of the same history through the
// reference ApplyChange loop — i.e. a reader can only ever see a state the
// warehouse actually committed, never a half-applied pass — and the
// sequence of versions a reader sees must be monotone. Run under -race this
// also proves the read surface is race-free against the writer.
func TestVersionPrefixConsistencyUnderChurn(t *testing.T) {
	h, err := scenario.Churn(scenario.ChurnParams{
		Families:          2,
		TwinsPerFamily:    4,
		Width:             6,
		Donors:            2,
		Spares:            4,
		SpareAttrs:        4,
		Changes:           120,
		Seed:              23,
		FamilyDeleteRatio: 0.18,
		FamilyRenameRatio: 0.12,
		DonorRatio:        0.10,
		ReplaceableViews:  true,
		AllowDecease:      true,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Reference side: replay the history change by change through
	// ApplyChange, fingerprinting the published version after every prefix
	// (including the empty prefix, before any change).
	ref := buildWarehouse(t, h, 0, true)
	prefixOf := map[string]int{mustFingerprint(t, ref.Acquire()): 0}
	for i, c := range h.Changes {
		if _, err := ref.ApplyChange(context.Background(), c); err != nil {
			t.Fatalf("reference change %d (%s): %v", i, c, err)
		}
		prefixOf[mustFingerprint(t, ref.Acquire())] = i + 1
	}

	// Live side: the same history through one evolution session, with
	// reader goroutines acquiring and fingerprinting versions throughout.
	live := buildWarehouse(t, h, 0, true)
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
				fp, err := versionFingerprint(v)
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
	// On an unloaded box the whole batch can land before the readers are
	// ever scheduled; keep serving the final version until each reader has
	// observed at least one (bounded, so a hung reader still fails fast).
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

	finalFP := mustFingerprint(t, live.Acquire())
	if got, want := prefixOf[finalFP], len(h.Changes); got != want {
		t.Errorf("final version fingerprints as prefix %d, want the full history %d", got, want)
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
				t.Fatalf("reader %d observed a version matching no prefix replay (seq %d):\n%s", r, o.seq, o.fp)
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
	t.Logf("readers observed %d versions, all matching prefix replays of the %d-change history", total, len(h.Changes))
}
