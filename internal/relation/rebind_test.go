package relation

import (
	"slices"
	"testing"
)

func TestSchemaQualify(t *testing.T) {
	s := MustSchema(TypeInt, "A", "B")
	q := s.Qualify("R", "X")
	if got := q.Names(); got[0] != "X.A" || got[1] != "X.B" {
		t.Errorf("qualified names = %v", got)
	}
	if q.Attr(0).Source != "R.A" || q.Attr(1).Source != "R.B" {
		t.Errorf("provenance = %q, %q", q.Attr(0).Source, q.Attr(1).Source)
	}
	// The original is untouched.
	if s.Names()[0] != "A" {
		t.Error("Qualify mutated its receiver")
	}
}

func TestRebindSharesStorage(t *testing.T) {
	r := MustFromRows("R", MustSchema(TypeInt, "A", "B"),
		IntRows([]int64{1, 10}, []int64{2, 20})...)
	v, err := r.Rebind("V", r.Schema().Qualify("R", "X"))
	if err != nil {
		t.Fatal(err)
	}
	if v.Card() != r.Card() {
		t.Fatalf("rebind card = %d, want %d", v.Card(), r.Card())
	}
	if &v.Tuples()[0][0] != &r.Tuples()[0][0] {
		t.Error("rebind copied tuples; expected shared storage")
	}
	if !v.Contains(Tuple{Int(1), Int(10)}) {
		t.Error("rebind lost the dedup index")
	}
	if v.Schema().Names()[0] != "X.A" {
		t.Errorf("rebind schema = %v", v.Schema().Names())
	}
}

func TestRebindRejectsArityMismatch(t *testing.T) {
	r := MustFromRows("R", MustSchema(TypeInt, "A", "B"), IntRows([]int64{1, 10})...)
	if _, err := r.Rebind("V", MustSchema(TypeInt, "A")); err == nil {
		t.Error("arity mismatch should fail")
	}
}

func TestBindMatchesEval(t *testing.T) {
	s := MustSchema(TypeInt, "A", "B")
	rows := IntRows([]int64{1, 10}, []int64{5, 5}, []int64{10, 1})
	conds := []Condition{
		True{},
		AttrConst("A", OpGT, Int(3)),
		AttrAttr("A", OpLE, "B"),
		And{AttrConst("A", OpGE, Int(1)), AttrAttr("A", OpNE, "B")},
		And(nil),
	}
	for _, c := range conds {
		bound, err := Bind(s, c)
		if err != nil {
			t.Fatalf("bind %s: %v", c, err)
		}
		for _, tu := range rows {
			want, err := c.Eval(s, tu)
			if err != nil {
				t.Fatal(err)
			}
			got := true
			for _, b := range bound {
				rv := b.Const
				if b.Right >= 0 {
					rv = tu[b.Right]
				}
				ok, err := b.Op.Apply(tu[b.Left], rv)
				if err != nil {
					t.Fatal(err)
				}
				got = got && ok
			}
			if got != want {
				t.Errorf("cond %s on %v: bound %v, eval %v", c, tu, got, want)
			}
		}
	}
}

func TestBindUnknownAttributeFailsEarly(t *testing.T) {
	s := MustSchema(TypeInt, "A")
	if _, err := Bind(s, AttrConst("Z", OpEQ, Int(1))); err == nil {
		t.Error("binding an unknown attribute should fail at bind time")
	}
	if _, err := Bind(s, AttrAttr("A", OpEQ, "Z")); err == nil {
		t.Error("binding an unknown right attribute should fail at bind time")
	}
}

func TestTupleKeyDistinguishesPositions(t *testing.T) {
	a := Tuple{Int(1), Int(23), Int(4)}
	b := Tuple{Int(12), Int(3), Int(4)}
	r := MustFromRows("R", MustSchema(TypeInt, "A", "B", "C"), a, b)
	pa, pb := r.Lookup([]int{0, 1}, a), r.Lookup([]int{0, 1}, b)
	if !slices.Equal(pa, []int32{0}) || !slices.Equal(pb, []int32{1}) {
		t.Errorf("composite keys collided across value boundaries: %v, %v", pa, pb)
	}
	if got := r.Lookup([]int{2}, a); !slices.Equal(got, []int32{0, 1}) {
		t.Errorf("equal single-column keys should match, got %v", got)
	}
}
