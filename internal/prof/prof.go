// Package prof is the CLIs' shared profiling plumbing: one call wires the
// -cpuprofile/-memprofile flags every scale-run tool offers, so bottlenecks
// at paper scale are attributable with `go tool pprof` instead of code
// edits (empty paths disable the respective profile), and PeakRSSMB reads
// the process's peak resident set for memory bounds such as paperrepro's
// -maxrss-mb.
package prof

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Start begins CPU profiling into cpuPath (when non-empty) and returns a
// stop function that ends it and writes an allocs-included heap profile to
// memPath (when non-empty). Call stop exactly once, after the measured work;
// deferring it from main is the intended shape.
func Start(cpuPath, memPath string) (stop func(), err error) {
	var cpuFile *os.File
	if cpuPath != "" {
		cpuFile, err = os.Create(cpuPath)
		if err != nil {
			return nil, fmt.Errorf("prof: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("prof: start cpu profile: %w", err)
		}
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				fmt.Fprintln(os.Stderr, "prof:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle live heap so the profile shows retention
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "prof: write heap profile:", err)
			}
		}
	}, nil
}
