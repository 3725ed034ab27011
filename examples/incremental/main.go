// Incremental: the methodology is designed to be applied at several points
// of the flow (§1 argues for this explicitly). This example runs MBR
// composition twice on the same design:
//
//  1. after "global placement" — the placement is deliberately perturbed to
//     emulate the rough positions global placement produces;
//
//  2. incrementally again after legalized detailed placement, where better
//     position information exposes additional merges among the registers
//     the first pass had to leave alone.
//
//     go run ./examples/incremental
package main

import (
	"fmt"
	"log"
	"math/rand"

	"repro/internal/bench"
	"repro/internal/compat"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/netlist"
	"repro/internal/place"
	"repro/internal/sta"
)

func composeOnce(d *netlist.Design, gen *bench.Result, prefix string) (*core.Result, error) {
	eng := sta.New(d)
	if _, err := eng.RunEndpoints(); err != nil {
		return nil, err
	}
	g := compat.Build(d, eng, gen.Plan, compat.DefaultOptions())
	opts := core.DefaultOptions()
	opts.NamePrefix = prefix
	return core.Compose(d, g, gen.Plan, opts)
}

func main() {
	gen, err := bench.Generate(bench.D3(bench.ProfileOpts{Scale: 60}))
	if err != nil {
		log.Fatal(err)
	}
	d := gen.Design
	start := len(d.Registers())

	// Emulate global placement: movable cells get knocked off their legal
	// sites by up to ~3 rows.
	rng := rand.New(rand.NewSource(99))
	d.Insts(func(in *netlist.Inst) {
		if in.Fixed || in.Kind == netlist.KindPort || in.Area() == 0 {
			return
		}
		d.MoveInst(in, geom.Point{
			X: in.Pos.X + int64(rng.Intn(7000)) - 3500,
			Y: in.Pos.Y + int64(rng.Intn(7000)) - 3500,
		})
	})

	// Pass 1: after global placement.
	res1, err := composeOnce(d, gen, "gp")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("pass 1 (post-global-place):   %4d -> %4d registers (%d MBRs composed)\n",
		res1.RegsBefore, res1.RegsAfter, len(res1.MBRs))

	// Detailed placement: legalize everything.
	lr := place.Legalize(d)
	if len(lr.Failed) > 0 {
		log.Fatalf("legalization failed for %d cells", len(lr.Failed))
	}
	fmt.Printf("detailed placement: %d cells moved, max displacement %d DBU\n",
		lr.Moved, lr.MaxDisplacement)

	// Pass 2: incremental composition on the legalized design. The MBRs
	// from pass 1 are themselves composable inputs now — exactly the
	// "incremental on designs already rich in MBRs" setting of the paper.
	res2, err := composeOnce(d, gen, "dp")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("pass 2 (post-detailed-place): %4d -> %4d registers (%d MBRs composed)\n",
		res2.RegsBefore, res2.RegsAfter, len(res2.MBRs))

	if err := d.Validate(); err != nil {
		log.Fatal(err)
	}
	if err := gen.Plan.Validate(d); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("total: %d -> %d registers across both passes\n", start, len(d.Registers()))
}
