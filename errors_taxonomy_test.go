package eve

// Satellite audit of the typed-error taxonomy: every sentinel and typed
// error must survive errors.Is / errors.As through every public entry
// point that can produce it — construction, parsing, registration, the
// reference ApplyChange loop, the session drivers (EvolveBatch, Stream),
// the serving read surface (Snapshot().Extent), an Insert into a sealed
// relation, and context cancellation.
// Subtests named after the deleted GetView, Serve and Version.Evaluate read
// the one surface that replaced them.

import (
	"context"
	"errors"
	"iter"
	"testing"
)

// taxonomySystem builds a parts system with one view that will decease on
// DeleteRelation("Parts") — the fixture every error path below shares.
func taxonomySystem(t *testing.T) *System {
	t.Helper()
	sys := buildPartsSystem(t)
	if _, err := sys.DefineView(context.Background(), `CREATE VIEW V AS SELECT P.Name FROM Parts P`); err != nil {
		t.Fatal(err)
	}
	return sys
}

// badChange is rejected by the space (unknown relation), producing a
// *ChangeError from every driver.
var badChange = DeleteRelation("NoSuchRelation")

func TestErrorTaxonomySurvivesPublicEntryPoints(t *testing.T) {
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()

	cases := []struct {
		name string
		got  func(t *testing.T) error
		want error // matched with errors.Is; nil means use check instead
		// check is the errors.As assertion for structured error types.
		check func(t *testing.T, err error)
	}{
		{
			name: "New invalid option",
			got: func(t *testing.T) error {
				_, err := New(WithTopK(-1))
				return err
			},
			want: ErrInvalidOption,
		},
		{
			name: "New invalid tradeoff wraps the validation error",
			got: func(t *testing.T) error {
				bad := DefaultTradeoff()
				bad.W1 = 2.5
				_, err := New(WithTradeoff(bad))
				return err
			},
			want: ErrInvalidOption,
		},
		{
			name: "ParseView syntax error",
			got: func(t *testing.T) error {
				_, err := ParseView("CREATE GARBAGE")
				return err
			},
			check: func(t *testing.T, err error) {
				var pe *ParseError
				if !errors.As(err, &pe) {
					t.Errorf("err = %v, want *ParseError via errors.As", err)
				}
			},
		},
		{
			name: "DefineView syntax error",
			got: func(t *testing.T) error {
				_, err := taxonomySystem(t).DefineView(context.Background(), "CREATE GARBAGE")
				return err
			},
			check: func(t *testing.T, err error) {
				var pe *ParseError
				if !errors.As(err, &pe) {
					t.Errorf("err = %v, want *ParseError via errors.As", err)
				}
			},
		},
		{
			name: "DefineView duplicate",
			got: func(t *testing.T) error {
				sys := taxonomySystem(t)
				_, err := sys.DefineView(context.Background(), `CREATE VIEW V AS SELECT M.ID FROM PartsMirror M`)
				return err
			},
			want: ErrDuplicateView,
		},
		{
			name: "GetView unknown",
			got: func(t *testing.T) error {
				_, err := taxonomySystem(t).Snapshot().Extent("Nope")
				return err
			},
			want: ErrViewNotFound,
		},
		{
			name: "Serve unknown view",
			got: func(t *testing.T) error {
				_, err := taxonomySystem(t).Snapshot().Extent("Nope")
				return err
			},
			want: ErrViewNotFound,
		},
		{
			name: "Snapshot Evaluate deceased view",
			got: func(t *testing.T) error {
				sys := taxonomySystem(t)
				if _, err := sys.ApplyChange(context.Background(), DeleteRelation("Parts")); err != nil {
					t.Fatal(err)
				}
				_, err := sys.Snapshot().Extent("V")
				return err
			},
			want: ErrViewDeceased,
		},
		{
			name: "SyncResult.Err wraps ErrNoRewriting",
			got: func(t *testing.T) error {
				sys := taxonomySystem(t)
				results, err := sys.ApplyChange(context.Background(), DeleteRelation("Parts"))
				if err != nil {
					t.Fatal(err)
				}
				return results[0].Err()
			},
			want: ErrNoRewriting,
		},
		{
			name: "ApplyChange rejected change",
			got: func(t *testing.T) error {
				_, err := taxonomySystem(t).ApplyChange(context.Background(), badChange)
				return err
			},
			check: assertChangeError,
		},
		{
			name: "EvolveBatch rejected change",
			got: func(t *testing.T) error {
				_, err := taxonomySystem(t).EvolveBatch(context.Background(), []Change{badChange})
				return err
			},
			check: assertChangeError,
		},
		{
			name: "Stream rejected change",
			got: func(t *testing.T) error {
				sys := taxonomySystem(t)
				feed := func(yield func(Change) bool) { yield(badChange) }
				var last error
				for _, err := range sys.Stream(context.Background(), iter.Seq[Change](feed)) {
					last = err
				}
				return last
			},
			check: assertChangeError,
		},
		{
			name: "ApplyUpdates unknown relation",
			got: func(t *testing.T) error {
				_, err := taxonomySystem(t).ApplyUpdates(context.Background(),
					[]Update{InsertTuple("NoSuchRelation", Tuple{Int(1)})})
				return err
			},
			want: ErrUnknownRelation,
		},
		{
			name: "Insert into a served extent",
			got: func(t *testing.T) error {
				ext, err := taxonomySystem(t).Snapshot().Extent("V")
				if err != nil {
					t.Fatal(err)
				}
				return ext.Insert(Tuple{Str("gear")})
			},
			want: ErrSealed,
		},
		{
			name: "Insert into a registered relation",
			got: func(t *testing.T) error {
				return taxonomySystem(t).Space.Relation("Parts").Insert(Tuple{Int(9), Str("gear"), Int(90)})
			},
			want: ErrSealed,
		},
		{
			name: "ApplyUpdates cancelled context",
			got: func(t *testing.T) error {
				sys := taxonomySystem(t)
				v := sys.Snapshot().View("V")
				rel := v.Def.From[0].Rel
				width := sys.Space.Relation(rel).Schema().Len()
				tup := make(Tuple, width)
				for i := range tup {
					tup[i] = Int(999)
				}
				_, err := sys.ApplyUpdates(cancelled, []Update{InsertTuple(rel, tup)})
				return err
			},
			want: context.Canceled,
		},
		{
			name: "Evaluate cancelled context",
			got: func(t *testing.T) error {
				sys := taxonomySystem(t)
				v := sys.Snapshot().View("V")
				_, err := Evaluate(cancelled, v.Def, sys.Space)
				return err
			},
			want: context.Canceled,
		},
		{
			name: "EvolveBatch cancelled context",
			got: func(t *testing.T) error {
				_, err := taxonomySystem(t).EvolveBatch(cancelled, []Change{DeleteRelation("Parts")})
				return err
			},
			want: context.Canceled,
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.got(t)
			if err == nil {
				t.Fatal("entry point returned nil error")
			}
			if tc.want != nil && !errors.Is(err, tc.want) {
				t.Errorf("err = %v, does not match %v via errors.Is", err, tc.want)
			}
			if tc.check != nil {
				tc.check(t, err)
			}
		})
	}
}

// assertChangeError requires a *ChangeError carrying the rejected change.
func assertChangeError(t *testing.T, err error) {
	var ce *ChangeError
	if !errors.As(err, &ce) {
		t.Errorf("err = %v, want *ChangeError via errors.As", err)
		return
	}
	if ce.Change.Rel != badChange.Rel {
		t.Errorf("ChangeError carries %v, want %v", ce.Change, badChange)
	}
}
