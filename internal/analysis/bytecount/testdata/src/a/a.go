// Fixture for bytecount rule 1 (driver-side code must not poke the Metrics
// byte counters). sgdStage is a regression fixture: it mirrors
// internal/baselines/flexifact.go's SGD stage before this suite landed, which
// bumped the cluster-wide counter directly and left the per-stage transfer
// profile short by exactly the shipped bytes.
package a

import "distenc/internal/rdd"

func sgdStage(c *rdd.Cluster, tc *rdd.TaskCtx, shipped int64) {
	c.Metrics().BytesShuffled.Add(2 * shipped) // want `direct Add on rdd.Metrics.BytesShuffled`
	c.Metrics().DiskBytesWrite.Store(0)        // want `direct Store on rdd.Metrics.DiskBytesWrite`
	tc.CountShuffled(2 * shipped)              // attribution through TaskCtx is the fix
	_ = c.Metrics().BytesShuffled.Load()       // reads are fine

	//distenc:accounted -- fixture: engine-internal test hook
	c.Metrics().DiskBytesRead.Add(1)
}
