package warehouse

import (
	"context"
	"testing"

	"repro/internal/esql"
	"repro/internal/exec"
)

// routeFuzzSeeds is FuzzQueryRoute's seed corpus over the replica fixture,
// shared with the pruning-soundness sweep.
var routeFuzzSeeds = []string{
	"SELECT A, B FROM R WHERE A > 1",
	"SELECT A FROM R",
	"SELECT R.A AS X, R.B FROM R WHERE R.A >= 2 AND R.B < 25",
	"SELECT A, B FROM Rep WHERE A > 1",
	"SELECT r.A FROM R r WHERE r.A = 2",
	"SELECT A FROM R WHERE A > 1 AND B <> 20 AND A <= 3",
	"SELECT B FROM R WHERE A > 0 AND A < 1",
	"SELECT A (AD = true) FROM R (RR = true) WHERE (A > 1) (CD = true)",
	"SELECT A FROM R WHERE B = 'x'",
	"SELECT R.B AS A, R.B FROM R WHERE R.A > 1",
}

// FuzzQueryRoute fuzzes the whole routing surface with arbitrary SQL: any
// input the parser and qualifier accept must route, execute, and checksum
// identically to base-only naive evaluation — the same differential
// contract as TestRouteDifferential, but over adversarial surface syntax
// instead of generated definitions. Inputs that fail to parse or qualify
// are skipped (rejecting garbage is the parser's own test surface). Every
// routed input is also held to the match index's soundness property, so the
// fuzzer searches for a query whose matching view the index prunes.
func FuzzQueryRoute(f *testing.F) {
	wh := New(replicaSpace(f), DefaultConfig())
	if _, err := wh.DefineView(context.Background(), replicaView); err != nil {
		f.Fatal(err)
	}
	for _, seed := range routeFuzzSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, sql string) {
		v := wh.Acquire()
		rt, err := v.RouteQuery(sql)
		if err != nil {
			t.Skip()
		}
		got, gotErr := rt.Execute(context.Background())
		q, err := esql.ParseQuery(sql)
		if err != nil {
			t.Fatalf("routed but unparseable: %q: %v", sql, err)
		}
		assertPruningSound(t, v, q, &pruneTally{})
		want, wantErr := exec.EvaluateNaive(q, wh.Space)
		if (gotErr != nil) != (wantErr != nil) {
			t.Fatalf("error divergence for %q: routed %v (route %v via %q), naive %v",
				sql, gotErr, rt.Kind, rt.View, wantErr)
		}
		if gotErr != nil {
			return
		}
		if got.Card() != want.Card() || exec.RowChecksum(got) != exec.RowChecksum(want) {
			t.Fatalf("differential mismatch for %q (route %v via %q):\nrouted:\n%s\nnaive:\n%s",
				sql, rt.Kind, rt.View, got, want)
		}
	})
}
