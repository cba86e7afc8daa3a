package eve_test

import (
	"context"
	"errors"
	"sync"
	"testing"

	eve "repro"
)

// sealedFixture is buildSpace plus a relation the caller keeps a pointer
// to across AddRelation, a system over both, the view Open over Orders,
// and the Version published after it.
func sealedFixture(t *testing.T) (*eve.System, *eve.Relation, *eve.Version) {
	t.Helper()
	sp := buildSpace()
	retained := eve.NewRelation("Returns", eve.NewSchema(eve.Attribute{Name: "RID", Type: eve.TypeInt}))
	if err := retained.Insert(eve.Tuple{eve.Int(1)}); err != nil {
		t.Fatal(err)
	}
	if err := sp.AddRelation("IS1", retained); err != nil {
		t.Fatal(err)
	}
	sys, err := eve.New(eve.WithSpace(sp))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.DefineView(context.Background(), `
		CREATE VIEW Open (VE = ~) AS
		SELECT O.ID (AR = true), O.Item (AR = true)
		FROM Orders O (RR = true)`); err != nil {
		t.Fatal(err)
	}
	return sys, retained, sys.Snapshot()
}

// sealedInserts are the three ways a caller could reach a relation a
// Version serves: the space it handed to New, a pointer it kept across
// AddRelation, and the served extent itself.
func sealedInserts(sys *eve.System, retained *eve.Relation, v *eve.Version) map[string]func() error {
	return map[string]func() error{
		"Space.Relation": func() error {
			return sys.Space.Relation("Orders").Insert(eve.Tuple{eve.Int(4), eve.Str("spring")})
		},
		"retained": func() error { return retained.Insert(eve.Tuple{eve.Int(2)}) },
		"Version.Extent": func() error {
			ext, err := v.Extent("Open")
			if err != nil {
				return err
			}
			return ext.Insert(eve.Tuple{eve.Int(4), eve.Str("spring")})
		},
	}
}

// checkServed requires v, and the latest Version, to serve Orders and Open
// with their three rows.
func checkServed(sys *eve.System, v *eve.Version) error {
	for _, at := range []*eve.Version{v, sys.Snapshot()} {
		ext, err := at.Extent("Open")
		if err != nil {
			return err
		}
		if base := at.Relation("Orders").Card(); base != 3 || ext.Card() != 3 {
			return errors.New("a served relation changed: Orders or Open no longer holds 3 rows")
		}
	}
	return nil
}

// TestRegisteredRelationsAreSealed: every relation a Version can see is
// sealed, so none of the three paths edits it; the Version serves what it
// served before, and the write history stays empty.
func TestRegisteredRelationsAreSealed(t *testing.T) {
	sys, retained, v := sealedFixture(t)
	for path, insert := range sealedInserts(sys, retained, v) {
		if err := insert(); !errors.Is(err, eve.ErrSealed) {
			t.Errorf("%s: Insert = %v, want ErrSealed", path, err)
		}
	}
	if err := checkServed(sys, v); err != nil {
		t.Fatal(err)
	}
	if got := sys.Snapshot().Seq(); got != v.Seq() {
		t.Errorf("a refused Insert published: seq %d -> %d", v.Seq(), got)
	}
	if retained.Card() != 1 {
		t.Errorf("retained relation holds %d rows, want 1", retained.Card())
	}
}

// TestStressSealedRelationsUnderQuery runs Query readers against
// goroutines that keep trying the three inserts; under -race it pins that
// a refused Insert writes nothing a lock-free reader reads.
func TestStressSealedRelationsUnderQuery(t *testing.T) {
	sys, retained, v := sealedFixture(t)
	ctx := context.Background()
	var wg sync.WaitGroup
	errc := make(chan error, 8)
	for range 3 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 200 {
				for _, q := range []string{"SELECT O.ID, O.Item FROM Orders O", "SELECT O.ID FROM Orders O WHERE O.ID > 1"} {
					if _, err := sys.Query(ctx, q); err != nil {
						errc <- err
						return
					}
				}
				if err := checkServed(sys, v); err != nil {
					errc <- err
					return
				}
			}
		}()
	}
	for path, insert := range sealedInserts(sys, retained, v) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 200 {
				if err := insert(); !errors.Is(err, eve.ErrSealed) {
					errc <- errors.New(path + ": Insert was not refused")
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if err := checkServed(sys, v); err != nil {
		t.Fatal(err)
	}
}
