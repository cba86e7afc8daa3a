package relation

import (
	"math"
	"math/rand"
	"testing"
)

// hashRowsCells is the kernel oracle's cell universe per column kind (the
// index is the Type): the edge payloads of every kind, and for a boxed
// column NULL beside every scalar type.
var hashRowsCells = [][]Value{
	TypeInvalid: {Null, Int(1), Float(1), String("1"), Bool(true), Float(math.NaN()), Float(math.Copysign(0, -1)), String("")},
	TypeInt:     {Int(0), Int(1), Int(-1), Int(math.MaxInt64), Int(math.MinInt64)},
	TypeFloat: {
		Float(math.NaN()), Float(math.Float64frombits(0x7FF0000000000001)), Float(math.Float64frombits(0xFFF8000000000abc)),
		Float(0), Float(math.Copysign(0, -1)), Float(math.Inf(1)), Float(math.Inf(-1)), Float(1.5),
	},
	TypeString: {String(""), String("a"), String("\xff\xfe"), String("a|s"), String("|s"), String("s|")},
	TypeBool:   {Bool(false), Bool(true)},
}

// hashRowsColumn builds a column of kind over n cells drawn by pick from
// its universe: a typed vector, or boxed values for TypeInvalid.
func hashRowsColumn(kind Type, n int, pick func(int) int) *Column {
	cells := hashRowsCells[kind]
	rows := make([]Tuple, n)
	for i := range rows {
		rows[i] = Tuple{cells[pick(len(cells))]}
	}
	col := genericColumn([][]Tuple{rows}, n, 0)
	if kind != TypeInvalid && n > 0 {
		col = ingestColumn([][]Tuple{rows}, n, 0)
	}
	if col.Kind != kind && n > 0 {
		panic("hashRowsColumn: built a column of another kind")
	}
	return &col
}

// checkHashRows holds HashRows over rows [lo, lo+n) to Column.Hash chained
// from HashSeed over the same cells, row by row.
func checkHashRows(t *testing.T, cols []*Column, sels []Sel, lo, n int) {
	t.Helper()
	hs := make([]uint64, n)
	HashRows(cols, sels, lo, hs)
	for k, got := range hs {
		want := HashSeed
		for c, col := range cols {
			var sel Sel
			if sels != nil {
				sel = sels[c]
			}
			want = col.Hash(rowAt(sel, lo+k), want)
		}
		if got != want {
			t.Fatalf("row %d of [%d, %d) over %d columns (sels %v): HashRows %016x, Column.Hash chain %016x",
				lo+k, lo, lo+n, len(cols), sels != nil, got, want)
		}
	}
}

// TestHashRowsMatchesColumnHash runs the kernel oracle over every column
// kind, one to four columns, nil and non-nil selection vectors, a zero and
// a non-zero lo, and blocks of 0, 1, 63, 64 and 65 rows.
func TestHashRowsMatchesColumnHash(t *testing.T) {
	const rows = 140
	rng := rand.New(rand.NewSource(1))
	kinds := []Type{TypeInt, TypeFloat, TypeString, TypeBool, TypeInvalid}
	for width := 1; width <= 4; width++ {
		for trial := range 12 {
			cols := make([]*Column, width)
			sels := make([]Sel, width)
			for c := range cols {
				kind := kinds[(trial+c)%len(kinds)]
				if trial >= len(kinds) {
					kind = kinds[rng.Intn(len(kinds))]
				}
				cols[c] = hashRowsColumn(kind, rows, rng.Intn)
				if c%2 == 1 { // mixed: a nil row vector beside a non-nil one
					continue
				}
				sels[c] = make(Sel, rows)
				for i := range sels[c] {
					sels[c][i] = int32(rng.Intn(rows)) // repeats and reorders
				}
			}
			for _, lo := range []int{0, 7} {
				for _, n := range []int{0, 1, 63, 64, 65} {
					checkHashRows(t, cols, nil, lo, n)
					checkHashRows(t, cols, sels, lo, n)
				}
			}
		}
	}
}

// FuzzHashRows is the kernel oracle over columns, selection vectors, lo and
// a block length drawn from an arbitrary script.
func FuzzHashRows(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 0, 64, 1, 2, 3})
	f.Add([]byte{3, 2, 4, 1, 0, 7, 65, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	f.Add([]byte{1, 4, 4, 1, 3, 63, 0, 1, 2, 3, 4, 5, 6, 7})
	f.Fuzz(func(t *testing.T, script []byte) {
		at := 0
		next := func() int {
			if len(script) == 0 {
				return 0
			}
			b := script[at%len(script)]
			at++
			return int(b)
		}
		width := 1 + next()%4
		kinds := make([]Type, width)
		for c := range kinds {
			kinds[c] = []Type{TypeInt, TypeFloat, TypeString, TypeBool, TypeInvalid}[next()%5]
		}
		withSels := next()%2 == 1
		lo, n := next()%8, next()%(2*BlockRows+2)
		rows := lo + n
		cols := make([]*Column, width)
		var sels []Sel
		if withSels {
			sels = make([]Sel, width)
		}
		for c := range cols {
			cols[c] = hashRowsColumn(kinds[c], rows, func(m int) int { return next() % m })
			if withSels && next()%3 != 0 {
				sels[c] = make(Sel, rows)
				for i := range sels[c] {
					sels[c][i] = int32(next() % rows)
				}
			}
		}
		checkHashRows(t, cols, sels, lo, n)
	})
}
