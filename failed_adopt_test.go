package eve

import (
	"context"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/misd"
	"repro/internal/relation"
	"repro/internal/space"
)

// ghostDonorSpace holds R(A,B) and a genuine replica Rep(A,B), and its MKB
// additionally advertises Ghost(A) ≡ π_A(R) — a relation no source holds.
// Ghost is tiny, so a view selecting only A ranks it above Rep, and adopting
// that rewriting fails at qualification.
func ghostDonorSpace(t *testing.T) *Space {
	t.Helper()
	sp := NewSpace()
	if _, err := sp.AddSource("IS1"); err != nil {
		t.Fatal(err)
	}
	schema := relation.MustSchema(relation.TypeInt, "A", "B")
	for _, name := range []string{"R", "Rep"} {
		rel := relation.MustFromRows(name, schema, relation.IntRows([]int64{1, 10}, []int64{2, 20}, []int64{3, 30})...)
		if err := sp.AddRelation("IS1", rel); err != nil {
			t.Fatal(err)
		}
	}
	mkb := sp.MKB()
	if err := mkb.RegisterRelation(misd.RelationInfo{
		Ref: misd.RelRef{Rel: "Ghost"}, Schema: relation.MustSchema(relation.TypeInt, "A"), Card: 1,
	}); err != nil {
		t.Fatal(err)
	}
	for donor, attrs := range map[string][]string{"Ghost": {"A"}, "Rep": {"A", "B"}} {
		if err := mkb.AddPCConstraint(misd.PCConstraint{
			Left:  misd.Fragment{Rel: misd.RelRef{Rel: "R"}, Attrs: attrs},
			Right: misd.Fragment{Rel: misd.RelRef{Rel: donor}, Attrs: attrs},
			Rel:   misd.Equal,
		}); err != nil {
			t.Fatal(err)
		}
	}
	return sp
}

// deceaseLog records OnDecease notifications.
type deceaseLog struct {
	NopObserver
	mu    sync.Mutex
	views []string
}

func (d *deceaseLog) OnDecease(view string, _ space.Change) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.views = append(d.views, view)
}

// TestFailedAdoptionDeceasesView closes the publish-after-failed-adopt
// caveat: when a view's chosen rewriting cannot be adopted (its donor is
// advertised by the MKB but absent from the space), the pass must not
// publish the view with its old definition over the relation the change just
// deleted. The view deceases with the failure in its History, its sibling
// still adopts, the error is still returned, and no live view of the
// published Version names a relation the Version does not have — through
// ApplyChange and through EvolveBatch alike.
func TestFailedAdoptionDeceasesView(t *testing.T) {
	drivers := map[string]func(*testing.T, *System, Change) error{
		"ApplyChange": func(t *testing.T, sys *System, c Change) error {
			rows, err := sys.ApplyChange(context.Background(), c)
			if rows != nil {
				t.Errorf("ApplyChange returned rows alongside its error: %+v", rows)
			}
			return err
		},
		"EvolveBatch": func(t *testing.T, sys *System, c Change) error {
			steps, err := sys.EvolveBatch(context.Background(), []Change{c})
			if len(steps) != 1 || len(steps[0].Results) != 2 {
				t.Fatalf("EvolveBatch steps = %+v, want the one landed change with both views", steps)
			}
			if r := steps[0].Results[0]; !r.Deceased || r.Chosen != nil {
				t.Errorf("Narrow reported %+v, want deceased with no adopted rewriting", r)
			}
			if r := steps[0].Results[1]; r.Deceased || r.Chosen == nil {
				t.Errorf("Wide reported %+v, want an adoption", r)
			}
			return err
		},
	}
	for name, drive := range drivers {
		t.Run(name, func(t *testing.T) {
			log := &deceaseLog{}
			sys, err := New(WithSpace(ghostDonorSpace(t)), WithObserver(log))
			if err != nil {
				t.Fatal(err)
			}
			for _, src := range []string{
				`CREATE VIEW Narrow (VE = ~) AS SELECT R.A (AR = true) FROM R (RR = true)`,
				`CREATE VIEW Wide (VE = ~) AS SELECT R.A (AR = true), R.B (AR = true) FROM R (RR = true)`,
			} {
				if _, err := sys.DefineView(context.Background(), src); err != nil {
					t.Fatal(err)
				}
			}

			err = drive(t, sys, DeleteRelation("R"))
			if err == nil || !strings.Contains(err.Error(), "Ghost") {
				t.Fatalf("err = %v, want the failed adoption over Ghost", err)
			}

			v := sys.Snapshot()
			narrow := v.View("Narrow")
			if !narrow.Deceased {
				t.Error("Narrow's adoption failed but the view is still live")
			}
			if all := strings.Join(narrow.History, "\n"); !strings.Contains(all, "adoption failed") || !strings.Contains(all, "Ghost") {
				t.Errorf("Narrow's History does not carry the failure: %q", narrow.History)
			}
			if !slices.Equal(log.views, []string{"Narrow"}) {
				t.Errorf("OnDecease fired for %v, want [Narrow]", log.views)
			}
			if wide := v.View("Wide"); wide.Deceased || wide.Def.From[0].Rel != "Rep" {
				t.Errorf("Wide should have adopted Rep: deceased=%v def=%s", wide.Deceased, wide.Def.Signature())
			}

			// The deceased Narrow stays reachable through View but is
			// neither listed nor served as live.
			if got := v.ViewNames(); !slices.Equal(got, []string{"Wide"}) || !slices.Equal(v.Views(), []*VersionView{v.View("Wide")}) {
				t.Errorf("live views = %v, want [Wide]", got)
			}
			rels := v.RelationNames()
			for _, vv := range v.Views() {
				for _, f := range vv.Def.From {
					if !slices.Contains(rels, f.Rel) {
						t.Errorf("published view %s is defined over %s, which version %d does not have (%v)", vv.Name, f.Rel, v.Seq(), rels)
					}
				}
			}
		})
	}
}
