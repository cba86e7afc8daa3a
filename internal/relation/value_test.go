package relation

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestValueConstructorsAndAccessors(t *testing.T) {
	if got := Int(42); got.Type() != TypeInt || got.AsInt() != 42 {
		t.Errorf("Int(42) = %+v", got)
	}
	if got := Float(2.5); got.Type() != TypeFloat || got.AsFloat() != 2.5 {
		t.Errorf("Float(2.5) = %+v", got)
	}
	if got := String("x"); got.Type() != TypeString || got.AsString() != "x" {
		t.Errorf("String(x) = %+v", got)
	}
	if got := Bool(true); got.Type() != TypeBool || !got.AsBool() {
		t.Errorf("Bool(true) = %+v", got)
	}
	if !Null.IsNull() || Int(0).IsNull() {
		t.Error("IsNull misclassifies")
	}
}

func TestValueText(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{Int(-7), "-7"},
		{Float(1.5), "1.5"},
		{String("abc"), "abc"},
		{Bool(false), "false"},
		{Null, "NULL"},
	}
	for _, c := range cases {
		if got := c.v.Text(); got != c.want {
			t.Errorf("Text(%v) = %q, want %q", c.v, got, c.want)
		}
	}
}

// TestValueKeyDistinguishesTypes holds the strict typed key, through
// ValueKeyEqual and through the row hash: values of different types are
// never the same key, all NaNs are one key, and +0 and -0 are two.
func TestValueKeyDistinguishesTypes(t *testing.T) {
	distinct := []Value{Int(1), Float(1), String("1"), Bool(true), Null, Int(0), Float(0), Float(math.Copysign(0, -1))}
	for i, a := range distinct {
		for j, b := range distinct {
			if same := ValueKeyEqual(a, b); same != (i == j) {
				t.Errorf("ValueKeyEqual(%v %v, %v %v) = %v", a.Type(), a, b.Type(), b, same)
			}
			if same := HashTuple(Tuple{a}) == HashTuple(Tuple{b}); same != (i == j) {
				t.Errorf("row hash of %v %v and %v %v: equal = %v", a.Type(), a, b.Type(), b, same)
			}
		}
	}
	nan, payload := Float(math.NaN()), Float(math.Float64frombits(0x7FF00000DEADBEEF))
	if !ValueKeyEqual(nan, payload) || HashTuple(Tuple{nan}) != HashTuple(Tuple{payload}) {
		t.Error("NaNs with different payloads are different keys")
	}
}

func TestValueEqual(t *testing.T) {
	if !Int(3).Equal(Int(3)) {
		t.Error("Int(3) != Int(3)")
	}
	if Int(3).Equal(Int(4)) {
		t.Error("Int(3) == Int(4)")
	}
	// Cross-type numeric equality is permitted for join evaluation.
	if !Int(3).Equal(Float(3)) {
		t.Error("Int(3) != Float(3.0)")
	}
	if Int(3).Equal(String("3")) {
		t.Error("Int(3) == String(3)")
	}
	if !Null.Equal(Null) {
		t.Error("NULL != NULL")
	}
	if Null.Equal(Int(0)) {
		t.Error("NULL == Int(0)")
	}
}

func TestValueCompare(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{Int(1), Int(2), -1},
		{Int(2), Int(1), 1},
		{Int(2), Int(2), 0},
		{Int(1), Float(1.5), -1},
		{Float(2.5), Int(2), 1},
		{String("a"), String("b"), -1},
		{String("b"), String("a"), 1},
		{Bool(false), Bool(true), -1},
		{Null, Int(0), -1},
		{Int(0), Null, 1},
		{Null, Null, 0},
	}
	for _, c := range cases {
		if got := c.a.Compare(c.b); got != c.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

// TestValueCompareIntsBeyondFloatPrecision pins int/int comparison to the
// int64 payloads: above 2^53 neighbouring integers share one float64, and a
// Compare that widened both sides called them equal while Equal said they
// differ — Sorted order was then input-order dependent, and the tuple
// reference path disagreed with the typed selConst[int64] kernel.
func TestValueCompareIntsBeyondFloatPrecision(t *testing.T) {
	const big = int64(1) << 53
	for _, c := range []struct {
		a, b int64
		want int
	}{
		{big, big + 1, -1},
		{big + 1, big, 1},
		{-big - 1, -big, -1},
		{math.MaxInt64 - 1, math.MaxInt64, -1},
		{math.MinInt64, math.MinInt64 + 1, -1},
		{big + 1, big + 1, 0},
	} {
		if got := Int(c.a).Compare(Int(c.b)); got != c.want {
			t.Errorf("Int(%d).Compare(Int(%d)) = %d, want %d", c.a, c.b, got, c.want)
		}
		if eq := Int(c.a).Equal(Int(c.b)); eq != (c.want == 0) {
			t.Errorf("Int(%d).Equal(Int(%d)) = %v disagrees with Compare", c.a, c.b, eq)
		}
		if gt, _ := OpGT.Apply(Int(c.a), Int(c.b)); gt != (c.want > 0) {
			t.Errorf("Int(%d) > Int(%d) = %v, want %v", c.a, c.b, gt, c.want > 0)
		}
	}
	// Mixed int/float keeps the widening path.
	if got := Int(big + 1).Compare(Float(float64(big))); got != 0 {
		t.Errorf("Int(2^53+1).Compare(Float(2^53)) = %d, want 0 (float widening)", got)
	}
}

func TestValueCompareAntisymmetric(t *testing.T) {
	f := func(a, b int64) bool {
		return Int(a).Compare(Int(b)) == -Int(b).Compare(Int(a))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestValueCompareTransitiveOnRandomValues(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	randVal := func() Value {
		switch rng.Intn(4) {
		case 0:
			return Int(rng.Int63n(10))
		case 1:
			return Float(float64(rng.Intn(10)) / 2)
		case 2:
			return String(string(rune('a' + rng.Intn(5))))
		default:
			return Bool(rng.Intn(2) == 0)
		}
	}
	for i := 0; i < 2000; i++ {
		a, b, c := randVal(), randVal(), randVal()
		if a.Compare(b) <= 0 && b.Compare(c) <= 0 && a.Compare(c) > 0 {
			t.Fatalf("transitivity violated: %v <= %v <= %v but %v > %v", a, b, c, a, c)
		}
	}
}

func TestValueByteSize(t *testing.T) {
	if Int(1).ByteSize() != 8 || Float(1).ByteSize() != 8 {
		t.Error("numeric widths should be 8")
	}
	if Bool(true).ByteSize() != 1 {
		t.Error("bool width should be 1")
	}
	if String("abcd").ByteSize() != 4 {
		t.Error("string width should be len")
	}
	if Null.ByteSize() != 0 {
		t.Error("NULL width should be 0")
	}
}

func TestParseType(t *testing.T) {
	for s, want := range map[string]Type{
		"int": TypeInt, "integer": TypeInt, "float": TypeFloat, "double": TypeFloat,
		"string": TypeString, "varchar": TypeString, "bool": TypeBool,
	} {
		got, err := ParseType(s)
		if err != nil || got != want {
			t.Errorf("ParseType(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseType("blob"); err == nil {
		t.Error("ParseType(blob) should fail")
	}
}

func TestTypeStringRoundTrip(t *testing.T) {
	for _, typ := range []Type{TypeInt, TypeFloat, TypeString, TypeBool} {
		got, err := ParseType(typ.String())
		if err != nil || got != typ {
			t.Errorf("round trip %v: got %v, err %v", typ, got, err)
		}
	}
}

func TestValueKeyInjectiveProperty(t *testing.T) {
	f := func(a, b int64) bool {
		sameHash := HashTuple(Tuple{Int(a)}) == HashTuple(Tuple{Int(b)})
		return ValueKeyEqual(Int(a), Int(b)) == (a == b) && sameHash == (a == b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestValueEqualReflexiveSymmetric(t *testing.T) {
	vals := []Value{Int(0), Int(-3), Float(1.25), String(""), String("z"), Bool(true), Null}
	for _, a := range vals {
		if !a.Equal(a) {
			t.Errorf("%v not equal to itself", a)
		}
		for _, b := range vals {
			if a.Equal(b) != b.Equal(a) {
				t.Errorf("Equal(%v,%v) not symmetric", a, b)
			}
		}
	}
	if !reflect.DeepEqual(Int(5), Int(5)) {
		t.Error("identical values not deeply equal")
	}
}
