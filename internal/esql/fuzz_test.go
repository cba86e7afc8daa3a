package esql

import (
	"testing"
)

// fuzzSeeds is the seed corpus: the paper's running example, the examples/
// programs' views, printed forms of the scenario generators' synthetic
// views (ChainView, WideView, Churn twins — inlined here because esql
// cannot import scenario), and a handful of syntax edge cases from the unit
// tests.
var fuzzSeeds = []string{
	// Paper Equation 2 (scenario.AsiaCustomerESQL).
	`CREATE VIEW AsiaCustomer (VE = ~) AS
SELECT C.Name (AR = true), C.Address (AR = true), C.Phone (AD = true, AR = true)
FROM Customer C (RR = true), FlightRes F
WHERE (C.Name = F.PName) (CR = true) AND (F.Dest = 'Tokyo') (CD = true)`,
	// examples/quickstart.
	`CREATE VIEW Catalog (VE = ~) AS
SELECT P.PartID (AR = true), P.Name (AR = true), P.Price (AD = true)
FROM Parts P (RR = true)
WHERE (P.Price > 15) (CD = true)`,
	// Printed scenario.ChainView(2, 100) shape.
	`CREATE VIEW VChain (VE = ~) AS
SELECT R1.B AS B1 (AD = true, AR = true), R2.B AS B2 (AD = true, AR = true)
FROM R1 (RD = true, RR = true), R2 (RD = true, RR = true)
WHERE (R1.C < 100) (CD = true, CR = true) AND (R1.A = R2.A) (CD = true, CR = true)`,
	// Printed scenario.WideView(2) / Churn twin shape.
	`CREATE VIEW VWide (VE = ~) AS
SELECT W0.K (AR = true), W0.A1 (AD = true, AR = true), W0.A2 (AD = true, AR = true)
FROM RA, W0 (RR = true)
WHERE (RA.K = W0.K) (CR = true)`,
	// Syntax corners: VE spellings, aliases, constants, quote escapes.
	"CREATE VIEW V (VE = ==) AS SELECT R.A FROM R",
	"CREATE VIEW V (VE = superset) AS SELECT R.A AS X (AD = true) FROM R",
	"CREATE VIEW V AS SELECT R.A FROM R WHERE R.A > 10 AND R.B <= 2.5 AND R.C <> -3",
	"CREATE VIEW V AS SELECT R.A FROM R WHERE R.A = 'O''Hare'",
	"CREATE VIEW V AS SELECT Name, Address FROM Customer",
}

// fuzzRejectSeeds are near-miss inputs that must fail cleanly — they seed
// the rejection paths without being held to the accept invariant.
var fuzzRejectSeeds = []string{
	"CREATE VIEW",
	"CREATE VIEW V AS SELECT FROM R",
	"SELECT R.A FROM R",
	"(((((",
	"CREATE VIEW V (VE = ~ AS SELECT R.A FROM R WHERE (R.A = 'x'",
}

// FuzzParse hammers the E-SQL parser with mutated view sources. The
// invariants: Parse never panics, and any accepted definition survives a
// Print→Parse round trip with its canonical signature intact (printing is
// the inverse of parsing on the accepted language).
func FuzzParse(f *testing.F) {
	for _, seed := range fuzzSeeds {
		f.Add(seed)
	}
	for _, seed := range fuzzRejectSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		v, err := Parse(src)
		if err != nil {
			return // rejected input is fine; panics are not
		}
		if got, want := v.Signature(), signatureOracle(v); got != want {
			t.Fatalf("Signature diverged from the oracle\ninput: %q\ngot:    %q\noracle: %q", src, got, want)
		}
		printed := Print(v)
		v2, err := Parse(printed)
		if err != nil {
			t.Fatalf("round trip rejected printed form\ninput: %q\nprinted: %q\nerr: %v", src, printed, err)
		}
		if v.Signature() != v2.Signature() {
			t.Fatalf("round trip changed signature\ninput: %q\nprinted: %q\nsig1: %s\nsig2: %s",
				src, printed, v.Signature(), v2.Signature())
		}
	})
}

// TestFuzzSeedsAccepted keeps the corpus honest: the well-formed seeds must
// parse today and the reject seeds must fail, so corpus rot (e.g. after a
// syntax change) is caught by plain `go test`, not only by fuzzing runs.
func TestFuzzSeedsAccepted(t *testing.T) {
	for i, seed := range fuzzSeeds {
		if _, err := Parse(seed); err != nil {
			t.Errorf("seed %d no longer parses: %v\n%s", i, err, seed)
		}
	}
	for i, seed := range fuzzRejectSeeds {
		if _, err := Parse(seed); err == nil {
			t.Errorf("reject seed %d unexpectedly parses:\n%s", i, seed)
		}
	}
}
