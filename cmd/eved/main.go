// Command eved is the serving daemon: an HTTP front-end that answers view
// queries from epoch-published warehouse versions while a churn session
// evolves the system underneath. It is the end-to-end proof of the "serving
// reads during evolution" contract: requests are served lock-free from
// immutable versions, so the evolution writer never blocks a reader and a
// reader never sees a half-applied pass.
//
// Usage:
//
//	go run ./cmd/eved [-addr :8080] [-interval 250ms] [-changes 200]
//	    [-seed 1] [-max-conns 256] [-timeout 5s] [-drain 10s]
//
// Endpoints:
//
//	GET  /          JSON status: version seq, live view count, change
//	                progress, readiness
//	GET  /views     JSON list of the current snapshot's live views
//	GET  /views/V   one view at one snapshot: definition, history,
//	                maintained extent
//	GET  /relations JSON list of the queryable base relations
//	GET  /query?q=  route an ad-hoc SELECT through the MV router
//	                (JSON: the chosen route, costs, rows, row checksum)
//	POST /update    apply a batch of data updates through incremental view
//	                maintenance (JSON body of at most 1 MiB: {"updates":
//	                [{"op": "insert", "rel": "W1", "tuple": [1, ...]}, ...]})
//	GET  /healthz   liveness probe (process is up)
//	GET  /readyz    readiness probe: 503 until the demo views are registered
//	                and a version is published
//
// Hardening: -max-conns caps concurrently accepted connections (excess
// connections queue in the kernel backlog), -timeout bounds each request's
// context, and SIGINT/SIGTERM trigger a graceful drain — the listener
// closes, in-flight requests complete (up to -drain), then the process
// exits. Every read acquires one version (eve.System.Snapshot) and serves
// entirely from it; updates share the single evolution writer with the churn
// stream.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os/signal"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	eve "repro"
	"repro/internal/scenario"
)

func main() {
	addr := flag.String("addr", ":8080", "HTTP listen address")
	interval := flag.Duration("interval", 250*time.Millisecond, "delay between capability changes")
	changes := flag.Int("changes", 200, "length of the generated churn stream")
	seed := flag.Int64("seed", 1, "churn scenario seed")
	maxConns := flag.Int("max-conns", 256, "max concurrently accepted connections (0 = unlimited)")
	timeout := flag.Duration("timeout", 5*time.Second, "per-request timeout (0 = none)")
	drain := flag.Duration("drain", 10*time.Second, "graceful-shutdown drain budget")
	flag.Parse()

	d, h, err := buildDaemon(*changes, *seed)
	if err != nil {
		log.Fatal(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	go func() {
		for i, c := range h.Changes {
			select {
			case <-ctx.Done():
				return
			case <-time.After(*interval):
			}
			d.writerMu.Lock()
			_, err := d.sys.EvolveBatch(context.Background(), []eve.Change{c})
			d.writerMu.Unlock()
			if err != nil {
				log.Printf("change %d (%s): %v", i, c, err)
				return
			}
			d.applied.Add(1)
			snap := d.sys.Snapshot()
			log.Printf("change %d/%d landed: %s (seq=%d, %d live views)",
				i+1, len(h.Changes), c, snap.Seq(), len(snap.ViewNames()))
		}
		log.Printf("churn stream finished; still serving")
	}()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	if *maxConns > 0 {
		ln = limitListener(ln, *maxConns)
	}
	srv := &http.Server{
		Handler:           d.handler(*timeout),
		ReadHeaderTimeout: 5 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	log.Printf("eved serving on %s (%d views, %d queued changes, every %s)",
		ln.Addr(), len(d.sys.Snapshot().ViewNames()), len(h.Changes), *interval)

	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
	}
	log.Printf("signal received; draining (budget %s)", *drain)
	dctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(dctx); err != nil {
		log.Fatalf("drain: %v", err)
	}
	log.Printf("drained; bye")
}

// daemon bundles the serving state behind the HTTP handler: the system,
// the single evolution writer's mutex (shared by the churn stream and
// /update), change progress, and the readiness latch.
type daemon struct {
	sys      *eve.System
	writerMu sync.Mutex
	applied  atomic.Int64
	total    int

	// registered flips once the demo views are registered; /readyz reports
	// 503 until then.
	registered atomic.Bool

	// slowQuery, when positive, stretches every /query request by that
	// duration — a test hook for the graceful-drain regression test.
	slowQuery time.Duration
}

// ready reports serving readiness: the view registration pass completed and
// a version is published.
func (d *daemon) ready() bool { return d.registered.Load() && d.sys.Snapshot().Seq() > 0 }

// maxUpdateBody bounds a POST /update body; a larger one is answered 413
// before any of it is applied.
const maxUpdateBody = 1 << 20

// buildDaemon assembles the demo system: a churn scenario space with
// populated relations and the twin views registered.
func buildDaemon(changes int, seed int64) (*daemon, *scenario.ChurnHistory, error) {
	h, err := scenario.Churn(scenario.ChurnParams{
		Families:          2,
		TwinsPerFamily:    4,
		Width:             6,
		Donors:            2,
		Spares:            4,
		SpareAttrs:        4,
		Changes:           changes,
		Seed:              seed,
		FamilyDeleteRatio: 0.10,
		FamilyRenameRatio: 0.10,
		DonorRatio:        0.08,
		ReplaceableViews:  true,
	})
	if err != nil {
		return nil, nil, err
	}
	sp, err := h.BuildSpace()
	if err != nil {
		return nil, nil, err
	}
	if err := scenario.Populate(sp, 100); err != nil {
		return nil, nil, err
	}
	sys, err := eve.New(eve.WithSpace(sp))
	if err != nil {
		return nil, nil, err
	}
	d := &daemon{sys: sys, total: len(h.Changes)}
	for _, def := range h.Views() {
		if _, err := sys.RegisterView(context.Background(), def); err != nil {
			return nil, nil, err
		}
	}
	d.registered.Store(true)
	return d, h, nil
}

// handler builds the HTTP mux over the system's serving surface, wrapping
// every request in the per-request timeout when one is configured.
func (d *daemon) handler(timeout time.Duration) http.Handler {
	mux := http.NewServeMux()

	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})

	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		if !d.ready() {
			http.Error(w, "not ready: waiting for view registration", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ready")
	})

	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		v := d.sys.Snapshot()
		writeJSON(w, map[string]any{
			"versionSeqs":    seqs(v),
			"liveViews":      len(v.ViewNames()),
			"changesApplied": d.applied.Load(),
			"changesTotal":   d.total,
			"ready":          d.ready(),
		})
	})

	mux.HandleFunc("/relations", func(w http.ResponseWriter, r *http.Request) {
		v := d.sys.Snapshot()
		writeJSON(w, map[string]any{"versionSeqs": seqs(v), "relations": v.RelationNames()})
	})

	mux.HandleFunc("/views", func(w http.ResponseWriter, r *http.Request) {
		v := d.sys.Snapshot()
		type row struct {
			Name   string `json:"name"`
			Tuples int    `json:"tuples"`
		}
		rows := make([]row, 0, len(v.Views()))
		for _, vv := range v.Views() {
			rows = append(rows, row{Name: vv.Name, Tuples: vv.Extent.Card()})
		}
		writeJSON(w, map[string]any{"versionSeqs": seqs(v), "views": rows})
	})

	mux.HandleFunc("/query", func(w http.ResponseWriter, r *http.Request) {
		sql := r.URL.Query().Get("q")
		if sql == "" {
			http.Error(w, "missing q parameter", http.StatusBadRequest)
			return
		}
		if d.slowQuery > 0 {
			select {
			case <-time.After(d.slowQuery):
			case <-r.Context().Done():
			}
		}
		v := d.sys.Snapshot()
		rt, err := v.RouteQuery(sql)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		res, err := rt.Execute(r.Context())
		if err != nil {
			status := http.StatusInternalServerError
			if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
				status = http.StatusServiceUnavailable
			}
			http.Error(w, err.Error(), status)
			return
		}
		writeQueryJSON(w, v.Seq(), rt, res)
	})

	mux.HandleFunc("/update", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		var req struct {
			Updates []struct {
				Op    string  `json:"op"`
				Rel   string  `json:"rel"`
				Tuple []int64 `json:"tuple"`
			} `json:"updates"`
		}
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxUpdateBody)).Decode(&req); err != nil {
			status := http.StatusBadRequest
			var tooLarge *http.MaxBytesError
			if errors.As(err, &tooLarge) {
				status = http.StatusRequestEntityTooLarge
			}
			http.Error(w, "bad JSON: "+err.Error(), status)
			return
		}
		if len(req.Updates) == 0 {
			http.Error(w, "empty update batch", http.StatusBadRequest)
			return
		}
		batch := make([]eve.Update, 0, len(req.Updates))
		for _, u := range req.Updates {
			tup := make(eve.Tuple, len(u.Tuple))
			for i, v := range u.Tuple {
				tup[i] = eve.Int(v)
			}
			switch u.Op {
			case "insert":
				batch = append(batch, eve.InsertTuple(u.Rel, tup))
			case "delete":
				batch = append(batch, eve.DeleteTuple(u.Rel, tup))
			default:
				http.Error(w, fmt.Sprintf("unknown op %q (want insert or delete)", u.Op), http.StatusBadRequest)
				return
			}
		}
		d.writerMu.Lock()
		metrics, err := d.sys.ApplyUpdates(r.Context(), batch)
		d.writerMu.Unlock()
		if err != nil {
			status := http.StatusInternalServerError
			if errors.Is(err, eve.ErrUnknownRelation) {
				status = http.StatusBadRequest
			}
			http.Error(w, err.Error(), status)
			return
		}
		writeJSON(w, map[string]any{
			"versionSeqs": seqs(d.sys.Snapshot()),
			"applied":     len(batch),
			"messages":    metrics.Messages,
			"bytes":       metrics.Bytes,
			"ios":         metrics.IO,
		})
	})

	mux.HandleFunc("/views/", func(w http.ResponseWriter, r *http.Request) {
		name := strings.TrimPrefix(r.URL.Path, "/views/")
		v := d.sys.Snapshot()
		ext, err := v.Extent(name)
		if err != nil {
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
		vv := v.View(name)
		fmt.Fprintf(w, "version seqs=%v\n\n%s\n", seqs(v), eve.PrintView(vv.Def))
		for _, h := range vv.History {
			fmt.Fprintln(w, h)
		}
		fmt.Fprintf(w, "\n%s", ext)
	})

	if timeout <= 0 {
		return mux
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), timeout)
		defer cancel()
		mux.ServeHTTP(w, r.WithContext(ctx))
	})
}

// seqs renders a version's sequence number as the one-element "versionSeqs"
// array that clients of every endpoint parse.
func seqs(v *eve.Version) []uint64 { return []uint64{v.Seq()} }

// writeJSON renders v as indented JSON.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // best-effort response write
}

// limitListener caps concurrently accepted connections at n: Accept blocks
// once n connections are open, and each connection returns its slot when
// closed. Excess dials queue in the kernel backlog instead of fanning out
// unbounded handler goroutines.
func limitListener(ln net.Listener, n int) net.Listener {
	return &limitedListener{Listener: ln, sem: make(chan struct{}, n)}
}

type limitedListener struct {
	net.Listener
	sem chan struct{}
}

// Accept implements net.Listener with the concurrency cap.
func (l *limitedListener) Accept() (net.Conn, error) {
	l.sem <- struct{}{}
	c, err := l.Listener.Accept()
	if err != nil {
		<-l.sem
		return nil, err
	}
	return &limitedConn{Conn: c, sem: l.sem}, nil
}

type limitedConn struct {
	net.Conn
	sem  chan struct{}
	once sync.Once
}

// Close returns the connection's slot exactly once.
func (c *limitedConn) Close() error {
	err := c.Conn.Close()
	c.once.Do(func() { <-c.sem })
	return err
}
