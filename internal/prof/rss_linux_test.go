package prof

import "testing"

func TestPeakRSSMB(t *testing.T) {
	rss, err := PeakRSSMB()
	if err != nil {
		t.Fatal(err)
	}
	// A running Go test binary is never below 1 MB resident.
	if rss < 1 {
		t.Fatalf("peak RSS %.3f MB, want at least 1 MB", rss)
	}
}
