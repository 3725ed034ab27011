package prof

import (
	"fmt"
	"syscall"
)

// PeakRSSMB reports the process's peak resident set size in MB. Linux
// getrusage reports ru_maxrss in KB. A failed reading is an error, never a
// zero, so a memory bound checked against it fails closed.
func PeakRSSMB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("prof: getrusage: %w", err)
	}
	return float64(ru.Maxrss) / 1024, nil
}
