package eve

// BenchmarkServeConcurrent measures the serving read path while the
// warehouse evolves underneath — the workload the epoch-publication layer
// exists for. A writer goroutine churns rename changes through an
// evolution session for the entire measurement (every change drives a full
// synchronize→rank→adopt pass over a family of twin views), while N reader
// goroutines serve view reads. Three modes over 1/4/16 readers:
//
//   - epoch:            lock-free Snapshot().Extent — the production
//                       serving read: the maintained extent answers the
//                       query, pinned to one commit point
//   - locked:           the same extent read through the serialized
//                       baseline an unsafe registry forces: a global mutex
//                       shared by readers and the evolution writer, so
//                       every synchronization pass stalls every reader
//   - mixed:            epoch reads while the writer alternates rename
//                       passes with incremental data-update batches
//                       (ApplyUpdates) — the mixed read/write workload.
//                       Readers stay lock-free across both writer paths;
//                       nothing ever quiesces them, which `make stress`
//                       checks under the race detector
//
// Aggregate read throughput is reported as the reads/s metric;
// `make bench-serve` records the grid in BENCH_serve.json. The acceptance
// bar for the epoch layer is ≥4x the locked baseline at 16 readers.

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/scenario"
)

// serveBenchSystem builds a populated churn system: two families of twin
// views over real tuples, so reads serve real extents. Views are drop-only
// (no donor migration) and the bench writer only renames, so the view set
// never shrinks mid-measurement.
func serveBenchSystem(b testing.TB) *System {
	b.Helper()
	h, err := scenario.Churn(scenario.ChurnParams{
		Families:       2,
		TwinsPerFamily: 8,
		Width:          6,
		Donors:         1,
		Spares:         2,
		SpareAttrs:     4,
		Changes:        1, // the space/view recipe is used; the bench writer generates its own stream
		Seed:           42,
	})
	if err != nil {
		b.Fatal(err)
	}
	sp, err := h.BuildSpace()
	if err != nil {
		b.Fatal(err)
	}
	// Populate every relation so reads serve real data and every pass
	// re-materializes real extents.
	if err := scenario.Populate(sp, 10000); err != nil {
		b.Fatal(err)
	}
	sys, err := New(WithSpace(sp))
	if err != nil {
		b.Fatal(err)
	}
	for _, def := range h.Views() {
		if _, err := sys.RegisterView(context.Background(), def); err != nil {
			b.Fatal(err)
		}
	}
	return sys
}

// renameChurn yields an endless valid change stream: attribute A1 of each
// family relation is renamed away and back, alternating families, so every
// change triggers a full synchronize→rank→adopt pass over that family's
// twin views and the stream never invalidates itself.
func renameChurn() func(i int) Change {
	cur := map[string]string{"W1": "A1", "W2": "A1"}
	return func(i int) Change {
		fam := "W1"
		if i%2 == 1 {
			fam = "W2"
		}
		next := fmt.Sprintf("T%d", i)
		if cur[fam] != "A1" {
			next = "A1" // rename back so the alphabet never grows
		}
		c := RenameAttribute(fam, cur[fam], next)
		cur[fam] = next
		return c
	}
}

func BenchmarkServeConcurrent(b *testing.B) {
	for _, mode := range []string{"epoch", "locked", "mixed"} {
		for _, readers := range []int{1, 4, 16} {
			b.Run(fmt.Sprintf("mode=%s/readers=%d", mode, readers), func(b *testing.B) {
				sys := serveBenchSystem(b)
				var mu sync.Mutex // the locked mode's global lock

				// One read serves one view extent; the mean extent byte
				// size (at registration — churn only renames) turns ns/op
				// into MB/s of served data.
				b.ReportAllocs()
				var extentBytes int64
				views := sys.Snapshot().Views()
				for _, vv := range views {
					extentBytes += int64(vv.Extent.Card()) * int64(vv.Extent.TupleSize())
				}
				b.SetBytes(extentBytes / int64(len(views)))

				// The churn writer runs for the whole measurement: one
				// rename pass after another, no idle gaps. In mixed mode
				// it alternates rename passes with data-update batches —
				// 8 inserts into W1, then the matching 8 deletes — so both
				// writer paths (capability evolution and incremental
				// maintenance) publish versions under the readers.
				done := make(chan struct{})
				writerDone := make(chan struct{})
				updArity := sys.Space.Relation("W1").Schema().Len()
				go func() {
					defer close(writerDone)
					ses := sys.Session()
					nextChange := renameChurn()
					changes, insert := 0, true
					for i := 0; ; i++ {
						select {
						case <-done:
							return
						default:
						}
						if mode == "mixed" && i%2 == 1 {
							batch := make([]Update, 8)
							for j := range batch {
								tup := make(Tuple, updArity)
								tup[0] = Int(int64(900_000 + j))
								for k := 1; k < updArity; k++ {
									tup[k] = Int(int64(k))
								}
								if insert {
									batch[j] = InsertTuple("W1", tup)
								} else {
									batch[j] = DeleteTuple("W1", tup)
								}
							}
							if _, err := sys.ApplyUpdates(context.Background(), batch); err != nil {
								b.Errorf("writer update: %v", err)
								return
							}
							insert = !insert
							continue
						}
						c := nextChange(changes)
						changes++
						if mode == "locked" {
							mu.Lock()
						}
						_, err := ses.Evolve(context.Background(), c)
						if mode == "locked" {
							mu.Unlock()
						}
						if err != nil {
							b.Errorf("writer: %v", err)
							return
						}
					}
				}()

				read := func(i int) error {
					switch mode {
					case "locked":
						mu.Lock()
						defer mu.Unlock()
						names := sys.w.ViewNames()
						v := sys.w.View(names[i%len(names)])
						if v.Extent.Card() < 0 {
							panic("unreachable")
						}
						return nil
					default: // epoch and mixed
						v := sys.Snapshot()
						names := v.ViewNames()
						ext, err := v.Extent(names[i%len(names)])
						if err != nil {
							return err
						}
						if ext.Card() < 0 {
							panic("unreachable")
						}
						return nil
					}
				}

				var next atomic.Int64
				start := make(chan struct{})
				var wg sync.WaitGroup
				errs := make([]error, readers)
				for r := 0; r < readers; r++ {
					wg.Add(1)
					go func(r int) {
						defer wg.Done()
						<-start
						for {
							i := int(next.Add(1)) - 1
							if i >= b.N {
								return
							}
							if err := read(i); err != nil {
								errs[r] = err
								return
							}
						}
					}(r)
				}
				b.ResetTimer()
				close(start)
				wg.Wait()
				b.StopTimer()
				close(done)
				<-writerDone
				for _, err := range errs {
					if err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "reads/s")
			})
		}
	}
}
