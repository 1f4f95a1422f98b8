package migration

import (
	"strings"
	"testing"
	"time"

	"pstore/internal/cluster"
	"pstore/internal/replication"
)

// TestScaleRefusedAfterFailoverSkew: failover promotion rehomes a partition
// onto its standby's node, leaving the layout jagged. The slot-indexed
// reconfiguration schedule assumes a rectangular layout, so Start must
// refuse with a clean error — it used to index-panic in planBucketMoves
// *after* AddNode had already written the new node into the manifest,
// stranding a half-scaled cluster.
func TestScaleRefusedAfterFailoverSkew(t *testing.T) {
	c, err := cluster.New(cluster.Config{
		InitialNodes:      2,
		PartitionsPerNode: 1,
		NBuckets:          64,
		Tables:            []string{"T"},
		Registry:          testRegistry(),
		ReplicationFactor: 1,
		Replication: replication.Options{
			Seed:           1,
			HealthInterval: 10 * time.Millisecond,
			AckTimeout:     200 * time.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	loadKeys(t, c, 50)
	// Let the standbys finish seeding: an unseeded standby is never
	// promotable, so killing its primary first would wedge the failover.
	if err := c.WaitReplicasCaughtUp(10 * time.Second); err != nil {
		t.Fatal(err)
	}

	if err := c.KillNode(0); err != nil {
		t.Fatal(err)
	}
	// Wait until promotion has skewed the layout: node 0's partition now
	// lives on node 1.
	deadline := time.Now().Add(10 * time.Second)
	skewed := false
	for time.Now().Before(deadline) {
		for _, n := range c.Nodes() {
			if len(n.Partitions) != c.PartitionsPerNode() {
				skewed = true
			}
		}
		if skewed {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !skewed {
		t.Fatal("failover never skewed the partition layout")
	}

	before := c.NumNodes()
	_, err = Run(c, before+1, fastOpts())
	if err == nil {
		t.Fatal("scale on a skewed layout succeeded, want refusal")
	}
	if !strings.Contains(err.Error(), "skewed by failovers") {
		t.Fatalf("scale error = %v, want layout-skew refusal", err)
	}
	// The refusal must happen before any node is provisioned, and must
	// release the reconfiguration lock for future (valid) attempts.
	if got := c.NumNodes(); got != before {
		t.Fatalf("refused scale changed node count: %d → %d", before, got)
	}
	if _, err := Run(c, before+1, fastOpts()); err == nil || strings.Contains(err.Error(), "in progress") {
		t.Fatalf("second attempt hit stale reconfiguration lock: %v", err)
	}
}
