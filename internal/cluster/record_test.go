package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	"pstore/internal/engine"
	"pstore/internal/replication"
	"pstore/internal/testutil"
)

// checkWiring asserts that every partition Nodes() lists is served by one
// consistent record: the route snapshot holds the cluster's record, which
// names the node listing it and runs a live executor; with replication its
// feed is the one the hub has registered, at the record's epoch, writing
// through the record's manager (at rest the feed head is the log's seq);
// with durability the manifest's Homes and Epochs entries are the record's
// home and epoch. Call it with the workload quiesced.
func checkWiring(t *testing.T, c *Cluster) {
	t.Helper()
	var m manifest
	if c.cfg.DataDir != "" {
		raw, err := os.ReadFile(c.manifestPath())
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(raw, &m); err != nil {
			t.Fatal(err)
		}
	}
	nodes := c.Nodes()
	rt := c.route.Load()
	c.mu.RLock()
	defer c.mu.RUnlock()
	for _, n := range nodes {
		for _, pid := range n.Partitions {
			r := c.primaries[pid]
			switch {
			case r == nil:
				t.Errorf("partition %d on node %d has no record", pid, n.ID)
				continue
			case rt.primaries[pid] != r:
				t.Errorf("partition %d: the route snapshot holds another record", pid)
			case r.node != n.ID:
				t.Errorf("partition %d: record names node %d, membership node %d", pid, r.node, n.ID)
			case r.exec.Stopped():
				t.Errorf("partition %d: serving executor is stopped", pid)
			}
			if c.replicationEnabled() {
				switch {
				case r.feed == nil || c.hub.Registered(pid) != r.feed:
					t.Errorf("partition %d: the hub serves another feed", pid)
				case r.feed.Epoch() != r.epoch:
					t.Errorf("partition %d: feed epoch %d, record epoch %d", pid, r.feed.Epoch(), r.epoch)
				case r.mgr != nil && r.feed.LSN() != r.mgr.Seq():
					t.Errorf("partition %d: feed at LSN %d, manager at seq %d", pid, r.feed.LSN(), r.mgr.Seq())
				}
			}
			if c.cfg.DataDir != "" {
				key := strconv.Itoa(pid)
				if m.Homes[key] != r.home || m.Epochs[key] != r.epoch {
					t.Errorf("partition %d: manifest home %q epoch %d, record %q %d",
						pid, m.Homes[key], m.Epochs[key], r.home, r.epoch)
				}
			}
		}
	}
}

// TestCrashRecoverWiring: a replicated durable cluster crashes and
// recovers; every acked write is back and the recovered records are wired
// like fresh ones.
func TestCrashRecoverWiring(t *testing.T) {
	cfg := replConfig(1)
	cfg.DataDir = t.TempDir()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		mustPut(t, c, fmt.Sprintf("cr%d", i))
	}
	waitQuiesced(t, c)
	sum, rows, err := c.ContentChecksum()
	if err != nil {
		t.Fatal(err)
	}
	c.Crash()

	c2, err := New(cfg)
	if err != nil {
		t.Fatalf("recover after crash: %v", err)
	}
	defer c2.Stop()
	if !c2.Recovered() {
		t.Fatal("expected recovery from DataDir")
	}
	sum2, rows2, err := c2.ContentChecksum()
	if err != nil {
		t.Fatal(err)
	}
	if sum2 != sum || rows2 != rows {
		t.Fatalf("recovered checksum %x (%d rows), want %x (%d rows)", sum2, rows2, sum, rows)
	}
	waitQuiesced(t, c2)
	checkWiring(t, c2)
}

// TestRecoverRefusesBadManifest: recovery validates cluster.json before it
// opens any log. Each row edits a real manifest one way; New must return an
// error — not panic, not open one log twice, not adopt a home RemoveNode
// could delete outside the data dir.
func TestRecoverRefusesBadManifest(t *testing.T) {
	cases := []struct {
		name   string
		edit   func(m *manifest, dir string)
		accept bool
	}{
		{"as written", func(*manifest, string) {}, true},
		{"no nodes", func(m *manifest, _ string) { m.Nodes = []manifestNode{} }, false},
		{"nodes without partitions", func(m *manifest, _ string) {
			for i := range m.Nodes {
				m.Nodes[i].Partitions = []int{}
			}
		}, false},
		{"negative node", func(m *manifest, _ string) { m.Nodes[0].ID = -1 }, false},
		{"repeated node", func(m *manifest, _ string) { m.Nodes[1].ID = m.Nodes[0].ID }, false},
		{"node at next_node", func(m *manifest, _ string) { m.Nodes[1].ID = m.NextNode }, false},
		{"partition on two nodes", func(m *manifest, _ string) {
			m.Nodes[1].Partitions = append(m.Nodes[1].Partitions, m.Nodes[0].Partitions[0])
		}, false},
		{"negative partition", func(m *manifest, _ string) { m.Nodes[0].Partitions[0] = -1 }, false},
		{"partition at next_part", func(m *manifest, _ string) { m.Nodes[0].Partitions[0] = m.NextPart }, false},
		{"home outside the data dir", func(m *manifest, dir string) {
			m.Homes["0"] = filepath.Join(filepath.Dir(dir), "elsewhere")
		}, false},
		{"home nested below the data dir", func(m *manifest, dir string) {
			m.Homes["0"] = filepath.Join(dir, "partition-00000", "nested")
		}, false},
		{"home is the data dir", func(m *manifest, dir string) { m.Homes["0"] = dir }, false},
		{"home shared by two partitions", func(m *manifest, _ string) { m.Homes["1"] = m.Homes["0"] }, false},
		{"home key not a partition", func(m *manifest, _ string) {
			m.Homes["p0"] = m.Homes["0"]
			delete(m.Homes, "0")
		}, false},
		{"epoch key not a partition", func(m *manifest, _ string) { m.Epochs = map[string]uint64{"x": 1} }, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig()
			cfg.DataDir = t.TempDir()
			c, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			c.Stop()
			raw, err := os.ReadFile(c.manifestPath())
			if err != nil {
				t.Fatal(err)
			}
			var m manifest
			if err := json.Unmarshal(raw, &m); err != nil {
				t.Fatal(err)
			}
			tc.edit(&m, cfg.DataDir)
			if raw, err = json.Marshal(&m); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(c.manifestPath(), raw, 0o644); err != nil {
				t.Fatal(err)
			}
			c2, err := New(cfg)
			if err == nil {
				defer c2.Stop()
			}
			switch {
			case tc.accept && err != nil:
				t.Fatalf("recovery refused an intact manifest: %v", err)
			case !tc.accept && err == nil:
				t.Fatal("recovery accepted the manifest")
			case tc.accept:
				checkWiring(t, c2)
			}
		})
	}
}

// TestRefusedRecoverOrStartLeavesNothingRunning: a New that fails after
// partitions came up — recovery's manifest write fails, or a fresh
// partition's log cannot open after another partition's did — leaves no
// executor, log, feed or hub listener running, and the data dir still
// recovers once the fault is gone.
func TestRefusedRecoverOrStartLeavesNothingRunning(t *testing.T) {
	t.Run("manifest write fails in recovery", func(t *testing.T) {
		testutil.CheckGoroutineLeaks(t)
		cfg := replConfig(1)
		cfg.DataDir = t.TempDir()
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 50; i++ {
			mustPut(t, c, fmt.Sprintf("mw%d", i))
		}
		sum, rows, err := c.QuiescedChecksum(10 * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		c.Stop()
		// A directory where the manifest's temporary file goes fails the
		// write at the end of recovery, after every partition came up.
		tmp := c.manifestPath() + ".tmp"
		if err := os.Mkdir(tmp, 0o755); err != nil {
			t.Fatal(err)
		}
		if _, err := New(cfg); err == nil {
			t.Fatal("recovery succeeded without writing its manifest")
		}
		if err := os.Remove(tmp); err != nil {
			t.Fatal(err)
		}
		c2, err := New(cfg)
		if err != nil {
			t.Fatalf("recover after the refused attempt: %v", err)
		}
		defer c2.Stop()
		sum2, rows2, err := c2.ContentChecksum()
		if err != nil {
			t.Fatal(err)
		}
		if sum2 != sum || rows2 != rows {
			t.Fatalf("recovered checksum %x (%d rows), want %x (%d rows)", sum2, rows2, sum, rows)
		}
		waitQuiesced(t, c2)
		checkWiring(t, c2)
	})
	t.Run("second partition fails to open", func(t *testing.T) {
		testutil.CheckGoroutineLeaks(t)
		cfg := replConfig(1)
		cfg.DataDir = t.TempDir()
		// A file where partition 1's log directory goes: partition 0 opens,
		// partition 1 cannot.
		if err := os.WriteFile(filepath.Join(cfg.DataDir, "partition-00001"), nil, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := New(cfg); err == nil {
			t.Fatal("New succeeded with partition 1's log directory blocked")
		}
	})
}

// fuzzDataDir stands in for the data dir of the manifests FuzzManifest
// decodes; decoding never touches it.
const fuzzDataDir = "/pstore-data"

// FuzzManifest: decodeManifest stands between cluster.json and recovery.
// It must never panic, and a manifest it accepts must name each partition
// exactly once. Seeds are manifests written by real New, AddNode and
// failover runs, their data dir rewritten to fuzzDataDir.
func FuzzManifest(f *testing.F) {
	for _, raw := range manifestSeeds(f) {
		f.Add(raw)
	}
	f.Add([]byte(`{"nbuckets":64,"partitions_per_node":2,"next_node":1,"next_part":2,"nodes":[]}`))
	f.Fuzz(func(t *testing.T, raw []byte) {
		m, recs, err := decodeManifest(raw, fuzzDataDir)
		if err != nil {
			return
		}
		named := make(map[int]int)
		for _, n := range m.Nodes {
			for _, pid := range n.Partitions {
				named[pid]++
			}
		}
		if len(recs) == 0 || len(recs) != len(named) {
			t.Fatalf("accepted manifest: %d records for %d named partitions", len(recs), len(named))
		}
		for i, r := range recs {
			if named[r.pid] != 1 || (i > 0 && recs[i-1].pid >= r.pid) {
				t.Fatalf("accepted manifest names partition %d %d times", r.pid, named[r.pid])
			}
		}
	})
}

// manifestSeeds runs a replicated durable cluster through New, AddNode and
// a standby promotion and returns the manifest after each step.
func manifestSeeds(f *testing.F) [][]byte {
	dir := f.TempDir()
	var seeds [][]byte
	snap := func() {
		raw, err := os.ReadFile(filepath.Join(dir, "cluster.json"))
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, bytes.ReplaceAll(raw, []byte(dir), []byte(fuzzDataDir)))
	}
	cfg := replConfig(1)
	cfg.Replication = replication.Options{Seed: 1, HealthInterval: 10 * time.Millisecond,
		AckTimeout: 200 * time.Millisecond}
	cfg.DataDir = dir
	c, err := New(cfg)
	if err != nil {
		f.Fatal(err)
	}
	defer c.Stop()
	snap()
	c.AddNode()
	snap()
	for i := 0; i < 50; i++ {
		key := fmt.Sprintf("seed%d", i)
		if res := c.Call(&engine.Txn{Proc: "Put", Key: key, Args: map[string]string{"v": key}}); res.Err != nil {
			f.Fatal(res.Err)
		}
	}
	if err := c.WaitReplicasCaughtUp(10 * time.Second); err != nil {
		f.Fatal(err)
	}
	c.KillPartition(c.Nodes()[0].Partitions[0])
	deadline := time.Now().Add(10 * time.Second)
	for c.ReplicationStats().Promotions < 1 {
		if time.Now().After(deadline) {
			f.Fatal("no promotion after killing a primary")
		}
		time.Sleep(5 * time.Millisecond)
	}
	snap()
	return seeds
}
