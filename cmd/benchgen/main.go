// Command benchgen generates a synthetic MBR-rich benchmark design (one of
// the D1–D5 profiles or a custom size) and writes it, plus its scan plan,
// as JSON.
//
// Usage:
//
//	benchgen -profile D1 -scale 20 -out d1.json [-scanout d1.scan.json]
//	benchgen -regs 2000 -seed 7 -out custom.json
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/bench"
	"repro/internal/prof"
)

func main() {
	var (
		profile    = flag.String("profile", "", "design profile: D1..D5 (empty = custom)")
		scale      = flag.Int("scale", bench.DefaultScale, "divide the paper's register counts by this")
		regs       = flag.Int("regs", 1000, "custom profile: number of registers")
		seed       = flag.Int64("seed", 1, "custom profile: RNG seed")
		out        = flag.String("out", "", "output design JSON (default stdout)")
		scanOut    = flag.String("scanout", "", "output scan plan JSON (optional)")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()
	if *scale < 1 {
		fmt.Fprintf(os.Stderr, "-scale must be at least 1, got %d\n", *scale)
		os.Exit(2)
	}

	stopProf, err := prof.Start(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer stopProf()

	spec, ok := bench.ProfileByName(*profile, bench.ProfileOpts{Scale: *scale})
	switch {
	case *profile == "":
		spec = bench.D1(bench.ProfileOpts{Scale: 1})
		spec.Name = "custom"
		spec.NumRegs = *regs
		spec.Seed = *seed
	case !ok:
		fmt.Fprintf(os.Stderr, "unknown profile %q (want D1..D5)\n", *profile)
		os.Exit(2)
	}

	res, err := bench.Generate(spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "generate:", err)
		os.Exit(1)
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}
	if err := res.Design.WriteJSON(w); err != nil {
		fmt.Fprintln(os.Stderr, "write design:", err)
		os.Exit(1)
	}
	if *scanOut != "" {
		f, err := os.Create(*scanOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		if err := res.Plan.WriteJSON(f, res.Design); err != nil {
			fmt.Fprintln(os.Stderr, "write scan plan:", err)
			os.Exit(1)
		}
	}
	fmt.Fprintf(os.Stderr, "%s: %d instances, %d registers, %d nets\n",
		spec.Name, res.Design.NumInsts(), len(res.Design.Registers()), res.Design.NumNets())
}
