package rdd

import (
	"os"
	"testing"

	"distenc/internal/leakcheck"
)

// TestMain holds every rdd test to the drain contract: a stage joins all of
// its task attempts and its speculation monitor, and Cluster.Close joins the
// eviction goroutines, so nothing this package starts may survive its tests.
func TestMain(m *testing.M) {
	os.Exit(leakcheck.Main(m))
}
