//go:build !linux

package prof

import (
	"fmt"
	"runtime"
)

// PeakRSSMB reports the process's peak resident set size in MB. Only Linux
// is supported (ru_maxrss units differ across platforms); elsewhere it
// returns an error, so a memory bound checked against it fails closed.
func PeakRSSMB() (float64, error) {
	return 0, fmt.Errorf("prof: peak RSS is not supported on %s", runtime.GOOS)
}
