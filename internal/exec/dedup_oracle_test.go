package exec

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/esql"
	"repro/internal/relation"
	"repro/internal/space"
)

// elisionViews are the views the dedup elision oracle reads, each with the
// key column sets its plan's joins borrow indexes on. R1 always drives (the
// oracle advertises it as the smallest relation), so a view whose select
// list holds every R1 column has its root elided exactly when none of
// those key sets repeats a key; the last view drops R1.L and R1.P, so its
// root always deduplicates.
var elisionViews = []struct {
	src      string
	borrows  []elisionBorrow
	provable bool
}{
	{`CREATE VIEW E AS SELECT R1.K, R1.L, R1.P, R2.Q, R3.S FROM R1, R2, R3
		WHERE R1.K = R2.K AND R2.K = R3.K AND R1.P <> 3`,
		[]elisionBorrow{{"R2", []int{0}}, {"R3", []int{0}}}, true},
	{`CREATE VIEW E AS SELECT R1.K, R1.L, R1.P, R2.Q, R3.S FROM R1, R2, R3
		WHERE R1.K = R2.K AND R1.L = R2.L AND R2.K = R3.K AND R2.L = R3.L`,
		[]elisionBorrow{{"R2", []int{0, 1}}, {"R3", []int{0, 1}}}, true},
	{`CREATE VIEW E AS SELECT R1.K, R1.L, R1.P, R2.Q, T.Q AS Q2 FROM R1, R2, R2 T
		WHERE R1.K = R2.K AND R1.L = T.K`,
		[]elisionBorrow{{"R2", []int{0}}, {"R2", []int{0}}}, true},
	{`CREATE VIEW E AS SELECT R2.Q, R2.K, R2.L FROM R2 WHERE R2.Q <> 1`, nil, true},
	{`CREATE VIEW E AS SELECT R1.K, R2.Q, R3.S FROM R1, R2, R3 WHERE R1.K = R2.K AND R2.K = R3.K`,
		[]elisionBorrow{{"R2", []int{0}}, {"R3", []int{0}}}, false},
}

// elisionBorrow is one key index a plan's join borrows: its relation and
// key columns.
type elisionBorrow struct {
	rel  string
	cols []int
}

// elisionSpace is R1(K, L, P), R2(K, L, Q) and R3(K, L, S) in a space whose
// MKB advertises R1 as the smallest, so every plan over them drives from R1.
type elisionSpace struct {
	sp *space.Space
}

func newElisionSpace(t *testing.T, rows map[string][]relation.Tuple) elisionSpace {
	t.Helper()
	es := elisionSpace{sp: space.New()}
	if _, err := es.sp.AddSource("IS1"); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"R1", "R2", "R3"} {
		payload := map[string]string{"R1": "P", "R2": "Q", "R3": "S"}[name]
		r := relation.New(name, relation.NewSchema(relation.Attribute{Name: "K"}, relation.Attribute{Name: "L"},
			relation.Attribute{Name: payload, Type: relation.TypeInt}))
		for _, u := range rows[name] {
			r.Insert(u) //nolint:errcheck // arity matches
		}
		if err := es.sp.AddRelation("IS1", r); err != nil {
			t.Fatal(err)
		}
	}
	es.advertise()
	return es
}

// advertise sets the estimates that make R1 drive every plan.
func (es elisionSpace) advertise() {
	es.sp.MKB().SetCard("R1", 1)
	es.sp.MKB().SetCard("R2", 1000)
	es.sp.MKB().SetCard("R3", 1000)
}

// land replaces name with its WithDelta by ins and del: the next Version.
func (es elisionSpace) land(t *testing.T, name string, ins, del []relation.Tuple) {
	t.Helper()
	r, err := es.sp.Relation(name).WithDelta(ins, del)
	if err != nil {
		t.Fatal(err)
	}
	if err := es.sp.ReplaceRelation(name, r); err != nil {
		t.Fatal(err)
	}
	es.advertise()
}

// unique reports whether no two rows of the relation agree at cols, by a
// test-side key encoding that shares no code with the index.
func (es elisionSpace) unique(b elisionBorrow) bool {
	r := es.sp.Relation(b.rel)
	seen := map[string]bool{}
	for _, u := range r.Tuples() {
		cells := make([]relation.Value, len(b.cols))
		for i, c := range b.cols {
			cells[i] = u[c]
		}
		k := cellsKey(cells...)
		if seen[k] {
			return false
		}
		seen[k] = true
	}
	return true
}

// read runs view v at the space's current Version and holds it to the
// oracle: the compiled plan's answer has EvaluateNaive's row checksum and
// cardinality, and its root is elided exactly when v's shape allows it and
// every key set its joins borrow is unique. It reports whether the root was
// elided.
func (es elisionSpace) read(t *testing.T, v int) bool {
	t.Helper()
	view := elisionViews[v]
	def := esql.MustParse(view.src)
	p, err := Plan(def, es.sp)
	if err != nil {
		t.Fatal(err)
	}
	want := view.provable
	for _, b := range view.borrows {
		want = want && es.unique(b)
	}
	text := p.Explain()
	if elided := strings.Contains(text, "[elided: R"); elided != want {
		t.Fatalf("view %d: root elided %v, want %v\n%s\nR1:\n%s\nR2:\n%s\nR3:\n%s", v, elided, want, text,
			es.sp.Relation("R1"), es.sp.Relation("R2"), es.sp.Relation("R3"))
	}
	got, err := p.Execute(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	naive, err := EvaluateNaive(def, es.sp)
	if err != nil {
		t.Fatal(err)
	}
	if got.Card() != naive.Card() || RowChecksum(got) != RowChecksum(naive) {
		t.Fatalf("view %d:\n%s\nplan (%d rows):\n%s\nnaive (%d rows):\n%s\nR1:\n%s\nR2:\n%s\nR3:\n%s", v, text,
			got.Card(), got, naive.Card(), naive, es.sp.Relation("R1"), es.sp.Relation("R2"), es.sp.Relation("R3"))
	}
	return want
}

// elisionMoves counts the root's switches over a read sequence: off is an
// elided read followed by a deduplicating one, on the reverse.
type elisionMoves struct{ on, off int }

// checkDedupElisionOracle decodes a scenario from script: a key domain,
// small R1, R2 and R3 over it, and a chain of Versions, each landing a
// WithDelta batch on R2, R3 or R1 — so duplicate join keys appear in and
// vanish from the relations whose indexes the joins borrow, and each
// Version's indexes are forks of the previous one's, answering through
// their young generations — with every view read at every Version.
func checkDedupElisionOracle(t *testing.T, script []byte) elisionMoves {
	at := 0
	next := func() int {
		if len(script) == 0 {
			return 0
		}
		b := script[at%len(script)]
		at++
		return int(b)
	}
	dom := joinKeyDomains[next()%len(joinKeyDomains)]
	row := func() relation.Tuple {
		return relation.Tuple{dom[next()%len(dom)], dom[next()%len(dom)], relation.Int(int64(next() % 5))}
	}
	rows := map[string][]relation.Tuple{}
	for _, name := range []string{"R1", "R2", "R3"} {
		for range next() % 5 {
			rows[name] = append(rows[name], row())
		}
	}
	es := newElisionSpace(t, rows)
	var moves elisionMoves
	last := make([]bool, len(elisionViews))
	for v := range elisionViews {
		last[v] = es.read(t, v)
	}
	for range 2 + next()%6 {
		name := []string{"R2", "R3", "R2", "R1"}[next()%4]
		var ins, del []relation.Tuple
		for range next() % 3 {
			ins = append(ins, row())
		}
		if cur := es.sp.Relation(name).Tuples(); len(cur) > 0 {
			for range next() % 3 {
				del = append(del, cur[next()%len(cur)])
			}
		}
		es.land(t, name, ins, del)
		for v := range elisionViews {
			elided := es.read(t, v)
			switch {
			case last[v] && !elided:
				moves.off++
			case !last[v] && elided:
				moves.on++
			}
			last[v] = elided
		}
	}
	return moves
}

// TestDedupElisionOracle holds the root's elision to EvaluateNaive. First a
// fixed chain: the root is elided while R2.K and R3.K are unique, is
// switched off at the Version where R2 gains a second row under a key, and
// on again at the one where that row leaves, then the same through R3.
// Then seeded scripts over every key domain, which must switch the root
// off and on again somewhere, so the oracle is not vacuous.
func TestDedupElisionOracle(t *testing.T) {
	ints := func(k, l, p int64) relation.Tuple {
		return relation.Tuple{relation.Int(k), relation.Int(l), relation.Int(p)}
	}
	es := newElisionSpace(t, map[string][]relation.Tuple{
		"R1": {ints(1, 0, 0), ints(2, 0, 1)},
		"R2": {ints(1, 0, 10), ints(2, 0, 11)},
		"R3": {ints(1, 0, 20), ints(2, 0, 21)},
	})
	for i, step := range []struct {
		rel      string
		ins, del []relation.Tuple
		elided   bool
	}{
		{elided: true},
		{rel: "R2", ins: []relation.Tuple{ints(1, 1, 12)}, elided: false},
		{rel: "R2", ins: []relation.Tuple{ints(3, 0, 13)}, elided: false},
		{rel: "R2", del: []relation.Tuple{ints(1, 1, 12)}, elided: true},
		{rel: "R3", ins: []relation.Tuple{ints(2, 1, 22)}, elided: false},
		{rel: "R3", del: []relation.Tuple{ints(2, 0, 21)}, elided: true},
	} {
		if step.rel != "" {
			es.land(t, step.rel, step.ins, step.del)
		}
		if got := es.read(t, 0); got != step.elided {
			t.Fatalf("Version %d: root elided %v, want %v", i, got, step.elided)
		}
	}

	var moves elisionMoves
	for seed := range 300 {
		script := make([]byte, 64)
		rand.New(rand.NewSource(int64(seed))).Read(script)
		script[0] = byte(seed)
		m := checkDedupElisionOracle(t, script)
		moves.on += m.on
		moves.off += m.off
	}
	if moves.on == 0 || moves.off == 0 {
		t.Fatalf("the scripts switched the root off %d and on %d times; the oracle is vacuous", moves.off, moves.on)
	}
}

// FuzzDedupElisionOracle is the dedup elision oracle over an arbitrary
// script.
func FuzzDedupElisionOracle(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 2, 1, 0, 1, 1, 2, 3, 0, 1, 2, 1, 1, 0, 2, 2, 2})
	f.Add([]byte{3, 4, 4, 4, 2, 5, 6, 7, 1, 0, 3, 2, 1, 1, 0, 0, 9})
	f.Add([]byte{1, 3, 2, 3, 3, 2, 1, 0, 3, 2, 2, 1, 0, 1, 2, 3, 4})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 1024 {
			t.Skip()
		}
		checkDedupElisionOracle(t, script)
	})
}
