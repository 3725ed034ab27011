// Command mbrserved serves the incremental composition flow over HTTP:
// named sessions hold a design plus its five retained engines (timing,
// compatibility graph, clock trees, congestion, metrics),
// edit batches stream in, and measurements/compositions stream out at
// O(touched) incremental cost per request. Sessions are snapshotable as
// source + op journal; restore replays and verifies a state digest.
//
//	mbrserved -addr 127.0.0.1:8337
//	curl -s -X POST localhost:8337/v1/sessions -d '{"name":"a","source":{"profile":"D1","scale":200}}'
//	curl -s -X POST localhost:8337/v1/sessions/a/edits -d '{"edits":[{"skew":{"inst":"r0001","skewPS":12}}]}'
//	curl -s -X POST localhost:8337/v1/sessions/a/measure
//	curl -s -X POST localhost:8337/v1/sessions/a/decompose -d '{"decompose":{"budget":4}}'
//
// Edits use the v2 tagged envelope (one op key per record); the v1 flat
// {"op": ...} form is still decoded for old journals and scripts.
//
// -selftest runs the concurrent edit-stream load harness against an
// in-process server and prints its JSON result (determinism oracle,
// zero-rebuild steady-state assertion, throughput and latency counters).
// -eco switches the harness to the ECO-replay stream profile: logic edits
// interleaved with bank (merge), debank (split), compose and slack-driven
// decompose rounds, replayed against the same byte-identity oracle. Each
// profile starts from its loadtest defaults (DefaultOptions,
// DefaultECOOptions); only the flags given on the command line override
// them. -scale must be at least 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"

	"repro/internal/serve"
	"repro/internal/serve/loadtest"
)

func main() {
	def := loadtest.DefaultOptions()
	var (
		addr        = flag.String("addr", "127.0.0.1:8337", "listen address")
		maxSessions = flag.Int("max-sessions", serve.DefaultMaxSessions, "live session cap (LRU eviction beyond it)")

		selftest = flag.Bool("selftest", false, "run the load harness against an in-process server, print JSON result")
		baseURL  = flag.String("base", "", "selftest: target a running server instead of an in-process one")
		profile  = flag.String("profile", def.Profile, "selftest: benchmark profile D1..D5")
		scale    = flag.Int("scale", def.Scale, "selftest: profile scale divisor (at least 1)")
		sessions = flag.Int("sessions", def.Sessions, "selftest: concurrent sessions")
		batches  = flag.Int("batches", def.Batches, "selftest: edit batches per session")
		perBatch = flag.Int("batch-edits", def.BatchEdits, "selftest: edits per batch")
		measureN = flag.Int("measure-every", def.MeasureEvery, "selftest: measure after every n-th batch")
		readers  = flag.Int("readers", def.Readers, "selftest: concurrent info/snapshot readers")
		workers  = flag.Int("workers", 0, "selftest: per-session engine workers (0 = per CPU)")
		seed     = flag.Int64("seed", def.Seed, "selftest: stream PRNG seed")
		oracle   = flag.Int("oracle", 0, "selftest: streams to verify against local replay (0 = all)")

		eco      = flag.Bool("eco", false, "selftest: ECO-replay stream profile (interleaves bank/debank/compose/decompose rounds; starts from its own defaults)")
		ecoEvery = flag.Int("eco-every", loadtest.DefaultECOOptions().ECOEvery, "selftest: parametric batches between ECO rounds")
	)
	flag.Parse()

	if *selftest {
		// Start from the profile's own defaults and overlay only the flags
		// given on the command line, so a bare -eco runs exactly
		// DefaultECOOptions().
		o := def
		if *eco {
			o = loadtest.DefaultECOOptions()
		}
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "base":
				o.BaseURL = *baseURL
			case "profile":
				o.Profile = *profile
			case "scale":
				o.Scale = *scale
			case "sessions":
				o.Sessions = *sessions
			case "batches":
				o.Batches = *batches
			case "batch-edits":
				o.BatchEdits = *perBatch
			case "measure-every":
				o.MeasureEvery = *measureN
			case "readers":
				o.Readers = *readers
			case "workers":
				o.Workers = *workers
			case "seed":
				o.Seed = *seed
			case "oracle":
				o.OracleSessions = *oracle
			case "eco-every":
				o.ECOEvery = *ecoEvery
			}
		})
		// Below 1 the stream generator and the served sessions would
		// resolve the scale differently (bench clamps to 1, serve.Source
		// reads 0 as its default), so they would target different designs.
		if o.Scale < 1 {
			fmt.Fprintf(os.Stderr, "-scale must be at least 1, got %d\n", o.Scale)
			os.Exit(2)
		}
		res, err := loadtest.Run(o)
		if res != nil {
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			_ = enc.Encode(res)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	m := serve.NewManager(serve.Options{MaxSessions: *maxSessions})
	log.Printf("mbrserved listening on %s (max %d sessions)", *addr, *maxSessions)
	log.Fatal(http.ListenAndServe(*addr, serve.Handler(m)))
}
