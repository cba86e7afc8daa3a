package warehouse

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/space"
)

// registerFleet defines n copies of the replaceable replica view, V0..Vn-1,
// so one capability change fans out across the whole pool.
func registerFleet(t *testing.T, wh *Warehouse, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		src := fmt.Sprintf(`CREATE VIEW V%d (VE = ~)
			AS SELECT R.A (AR = true), R.B (AD = true, AR = true)
			FROM R (RR = true) WHERE (R.A > 1) (CR = true)`, i)
		if _, err := wh.DefineView(context.Background(), src); err != nil {
			t.Fatal(err)
		}
	}
}

// TestApplyChangeConcurrentViews drives the pipelined synchronizer over 12
// views at several pool widths; combined with `go test -race` this covers
// the concurrent synchronize → rank → adopt phases. Results must come back
// in registration order with identical outcomes regardless of pool size.
func TestApplyChangeConcurrentViews(t *testing.T) {
	const fleet = 12
	for _, workers := range []int{0, 1, 3, 8, 32} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Workers = workers
			wh := New(replicaSpace(t), cfg)
			registerFleet(t, wh, fleet)
			results, err := wh.ApplyChange(context.Background(), space.Change{Kind: space.DeleteRelation, Rel: "R"})
			if err != nil {
				t.Fatal(err)
			}
			if len(results) != fleet {
				t.Fatalf("results = %d, want %d", len(results), fleet)
			}
			for i, res := range results {
				if want := fmt.Sprintf("V%d", i); res.ViewName != want {
					t.Fatalf("result %d = %s, want %s (registration order lost)", i, res.ViewName, want)
				}
				if res.Deceased || res.Chosen == nil {
					t.Fatalf("view %s did not adopt a rewriting", res.ViewName)
				}
				v := wh.View(res.ViewName)
				if v.Def.From[0].Rel != "Rep" {
					t.Errorf("view %s rewritten over %q, want Rep", res.ViewName, v.Def.From[0].Rel)
				}
				if v.Extent.Card() != 2 {
					t.Errorf("view %s extent = %d, want 2", res.ViewName, v.Extent.Card())
				}
			}
		})
	}
}

// TestApplyChangeConcurrentMixedOutcomes checks the pipeline keeps per-view
// outcomes (adopt / decease / unaffected) straight when they interleave.
func TestApplyChangeConcurrentMixedOutcomes(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Workers = 8
	wh := New(replicaSpace(t), cfg)
	// 4 survivors, 4 rigid views that will decease, 4 bystanders.
	for i := 0; i < 4; i++ {
		if _, err := wh.DefineView(context.Background(), fmt.Sprintf(`CREATE VIEW Live%d (VE = ~)
			AS SELECT R.A (AR = true) FROM R (RR = true)`, i)); err != nil {
			t.Fatal(err)
		}
		if _, err := wh.DefineView(context.Background(), fmt.Sprintf("CREATE VIEW Rigid%d AS SELECT R.B FROM R", i)); err != nil {
			t.Fatal(err)
		}
		if _, err := wh.DefineView(context.Background(), fmt.Sprintf("CREATE VIEW Aside%d AS SELECT Rep.A FROM Rep", i)); err != nil {
			t.Fatal(err)
		}
	}
	results, err := wh.ApplyChange(context.Background(), space.Change{Kind: space.DeleteRelation, Rel: "R"})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 12 {
		t.Fatalf("results = %d", len(results))
	}
	for _, res := range results {
		switch {
		case res.ViewName[:4] == "Live":
			if res.Chosen == nil || res.Deceased {
				t.Errorf("%s should survive by substitution", res.ViewName)
			}
		case res.ViewName[:4] == "Rigi":
			if !res.Deceased {
				t.Errorf("%s should decease", res.ViewName)
			}
		default:
			if res.Ranking != nil || res.Deceased {
				t.Errorf("%s should be unaffected", res.ViewName)
			}
		}
	}
}

// TestTakeSnapshotImmutable: rankings must read pre-change cardinalities
// even after the MKB evolves.
func TestTakeSnapshotImmutable(t *testing.T) {
	wh := New(replicaSpace(t), DefaultConfig())
	snap := wh.TakeSnapshot()
	if snap.Card("R") != 3 || snap.Card("Rep") != 3 {
		t.Fatalf("snapshot cards = %d/%d, want 3/3", snap.Card("R"), snap.Card("Rep"))
	}
	if err := wh.Space.ApplyChange(space.Change{Kind: space.DeleteRelation, Rel: "R"}); err != nil {
		t.Fatal(err)
	}
	if snap.Card("R") != 3 {
		t.Error("snapshot changed when the MKB evolved")
	}
	if snap.Card("Ghost") != 0 {
		t.Error("unknown relation should report zero")
	}
	var nilSnap *Snapshot
	if nilSnap.Card("R") != 0 {
		t.Error("nil snapshot should report zero")
	}
}
