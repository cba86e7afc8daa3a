package relation

import (
	"cmp"
	"fmt"
	"strconv"
)

// Type identifies the domain of an attribute. The paper's MISD describes
// attribute domains with type-integrity constraints; we support the four
// scalar types needed by the experiments.
type Type uint8

// Supported attribute types.
const (
	TypeInvalid Type = iota
	TypeInt
	TypeFloat
	TypeString
	TypeBool
)

// String returns the lower-case name of the type as used by the E-SQL
// surface syntax and the MKB dump format.
func (t Type) String() string {
	switch t {
	case TypeInt:
		return "int"
	case TypeFloat:
		return "float"
	case TypeString:
		return "string"
	case TypeBool:
		return "bool"
	default:
		return "invalid"
	}
}

// ParseType converts a type name into a Type. It accepts the names produced
// by Type.String plus the common SQL-ish aliases used in scenario files.
func ParseType(s string) (Type, error) {
	switch s {
	case "int", "integer", "bigint":
		return TypeInt, nil
	case "float", "double", "real", "decimal":
		return TypeFloat, nil
	case "string", "varchar", "char", "text":
		return TypeString, nil
	case "bool", "boolean":
		return TypeBool, nil
	}
	return TypeInvalid, fmt.Errorf("relation: unknown type %q", s)
}

// Value is a single typed attribute value. The zero Value is the SQL-ish
// NULL: it has TypeInvalid and compares equal only to itself.
//
// Value is a small immutable struct passed by value everywhere; tuples are
// slices of Values.
type Value struct {
	typ Type
	i   int64
	f   float64
	s   string
	b   bool
}

// Null is the absent value.
var Null = Value{}

// Int returns an integer Value.
func Int(v int64) Value { return Value{typ: TypeInt, i: v} }

// Float returns a floating-point Value.
func Float(v float64) Value { return Value{typ: TypeFloat, f: v} }

// String returns a string Value. (Constructor; see Value.Text for rendering.)
func String(v string) Value { return Value{typ: TypeString, s: v} }

// Bool returns a boolean Value.
func Bool(v bool) Value { return Value{typ: TypeBool, b: v} }

// Type reports the type of the value.
func (v Value) Type() Type { return v.typ }

// IsNull reports whether the value is the NULL value.
func (v Value) IsNull() bool { return v.typ == TypeInvalid }

// AsInt returns the integer payload; it is only meaningful for TypeInt.
func (v Value) AsInt() int64 { return v.i }

// AsFloat returns the numeric payload widened to float64. Works for both
// TypeInt and TypeFloat, which makes mixed int/float comparisons cheap.
func (v Value) AsFloat() float64 {
	if v.typ == TypeInt {
		return float64(v.i)
	}
	return v.f
}

// AsString returns the string payload; only meaningful for TypeString.
func (v Value) AsString() string { return v.s }

// AsBool returns the boolean payload; only meaningful for TypeBool.
func (v Value) AsBool() bool { return v.b }

// Text renders the value the way the CLI tools and golden tests print it.
func (v Value) Text() string {
	switch v.typ {
	case TypeInt:
		return strconv.FormatInt(v.i, 10)
	case TypeFloat:
		return strconv.FormatFloat(v.f, 'g', -1, 64)
	case TypeString:
		return v.s
	case TypeBool:
		return strconv.FormatBool(v.b)
	default:
		return "NULL"
	}
}

// AppendText appends Text's rendering to dst — the allocation-free twin for
// writers that encode many cells into one buffer.
func (v Value) AppendText(dst []byte) []byte {
	switch v.typ {
	case TypeInt:
		return strconv.AppendInt(dst, v.i, 10)
	case TypeFloat:
		return strconv.AppendFloat(dst, v.f, 'g', -1, 64)
	case TypeString:
		return append(dst, v.s...)
	case TypeBool:
		return strconv.AppendBool(dst, v.b)
	default:
		return append(dst, "NULL"...)
	}
}

// Equal reports whether two values are identical (same type, same payload).
// Numeric cross-type equality (Int(1) vs Float(1.0)) is handled by Compare,
// not Equal, mirroring strict key semantics.
func (v Value) Equal(o Value) bool {
	if v.typ != o.typ {
		// Permit int/float numeric equality for join conditions over
		// heterogeneous sources.
		if isNumeric(v.typ) && isNumeric(o.typ) {
			return v.AsFloat() == o.AsFloat()
		}
		return false
	}
	switch v.typ {
	case TypeInt:
		return v.i == o.i
	case TypeFloat:
		return v.f == o.f
	case TypeString:
		return v.s == o.s
	case TypeBool:
		return v.b == o.b
	default:
		return true // both NULL
	}
}

// Compare orders two values: -1 if v < o, 0 if equal, +1 if v > o.
// NULL sorts before everything; two ints compare on their int64 payloads
// (exact beyond 2^53, where widening would merge neighbours); mixed
// int/float comparison widens to float64; otherwise values are ordered by
// type then payload so sorting is total.
func (v Value) Compare(o Value) int {
	if v.typ == TypeInvalid || o.typ == TypeInvalid {
		switch {
		case v.typ == o.typ:
			return 0
		case v.typ == TypeInvalid:
			return -1
		default:
			return 1
		}
	}
	if v.typ == TypeInt && o.typ == TypeInt {
		return cmp.Compare(v.i, o.i)
	}
	if isNumeric(v.typ) && isNumeric(o.typ) {
		a, b := v.AsFloat(), o.AsFloat()
		switch {
		case a < b:
			return -1
		case a > b:
			return 1
		default:
			return 0
		}
	}
	if v.typ != o.typ {
		if v.typ < o.typ {
			return -1
		}
		return 1
	}
	switch v.typ {
	case TypeString:
		switch {
		case v.s < o.s:
			return -1
		case v.s > o.s:
			return 1
		}
		return 0
	case TypeBool:
		switch {
		case v.b == o.b:
			return 0
		case !v.b:
			return -1
		default:
			return 1
		}
	}
	return 0
}

// ByteSize returns the simulated storage width of the value in bytes. The
// cost model (Section 6) charges transferred bytes by attribute size; we use
// fixed widths (8 for numerics, len+overhead for strings) to stay faithful
// to the paper's "size of each attribute is known" assumption.
func (v Value) ByteSize() int {
	switch v.typ {
	case TypeInt, TypeFloat:
		return 8
	case TypeBool:
		return 1
	case TypeString:
		return len(v.s)
	default:
		return 0
	}
}

func isNumeric(t Type) bool { return t == TypeInt || t == TypeFloat }
