package durability_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"testing"
	"time"

	"pstore/internal/cluster"
	"pstore/internal/durability"
	"pstore/internal/migration"
	"pstore/internal/replication"
)

var (
	primaryDirRE = regexp.MustCompile(`^partition-(\d+)$`)
	standbyDirRE = regexp.MustCompile(`^replica-p(\d+)-n\d+$`)
)

// logDirs maps each partition to its primary log directory and its standby
// log directories under a cluster data dir.
func logDirs(t *testing.T, dataDir string) (primary map[int]string, standbys map[int][]string) {
	t.Helper()
	entries, err := os.ReadDir(dataDir)
	if err != nil {
		t.Fatal(err)
	}
	primary, standbys = make(map[int]string), make(map[int][]string)
	for _, e := range entries {
		if m := primaryDirRE.FindStringSubmatch(e.Name()); m != nil {
			pid, _ := strconv.Atoi(m[1])
			primary[pid] = filepath.Join(dataDir, e.Name())
		} else if m := standbyDirRE.FindStringSubmatch(e.Name()); m != nil {
			pid, _ := strconv.Atoi(m[1])
			standbys[pid] = append(standbys[pid], filepath.Join(dataDir, e.Name()))
		}
	}
	return primary, standbys
}

// TestStandbyLogBytesMatchPrimary: a write is encoded once and every later
// copy is a copy of those bytes. After a k=1 durable run mixing
// transactions, LoadRow puts and bucket moves, every standby's command log
// holds exactly the primary's payload bytes for every LSN both hold — and
// recovering the cluster from either copy reproduces the fault-free
// oracle's content checksum.
func TestStandbyLogBytesMatchPrimary(t *testing.T) {
	reg := crashTestRegistry()
	dir := t.TempDir()
	cfg := crashTestConfig(reg, dir)
	cfg.InitialNodes = 2
	cfg.PartitionsPerNode = 1
	cfg.ReplicationFactor = 1
	cfg.Replication = replication.Options{Seed: 1}
	ops := crashWorkload(300)

	// Scaling out and back in moves buckets both ways: the scale-in hands
	// buckets to the original partitions, whose standbys were live all
	// along, so bucket-in records are shipped and logged on both sides.
	run := func(c *cluster.Cluster) {
		for i := range ops {
			if i == 100 || i == 200 {
				if _, err := migration.Run(c, 3-i/200, migration.Options{BucketsPerChunk: 4}); err != nil {
					t.Fatalf("scaling at op %d: %v", i, err)
				}
			}
			if i%5 == 0 {
				key := fmt.Sprintf("loaded-%d", i)
				if err := c.LoadRow("t", key, map[string]string{"v": key}); err != nil {
					t.Fatalf("LoadRow %s: %v", key, err)
				}
			}
			txn := ops[i]
			if res := c.Call(&txn); res.Err != nil {
				t.Fatalf("op %d: %v", i, res.Err)
			}
		}
	}

	c, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Each standby seeds from a snapshot cut early in the run; everything
	// after the cut streams live and lands in both logs.
	run(c)
	if err := c.WaitReplicasCaughtUp(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond) // group commit flushes every tail to the OS
	c.Crash()

	primary, standbys := logDirs(t, dir)
	kinds := make(map[byte]int)
	for pid, pdir := range primary {
		want, err := durability.LogPayloads(pdir)
		if err != nil {
			t.Fatalf("partition %d primary log: %v", pid, err)
		}
		if len(standbys[pid]) == 0 {
			t.Fatalf("partition %d has no standby log", pid)
		}
		for _, sdir := range standbys[pid] {
			got, err := durability.LogPayloads(sdir)
			if err != nil {
				t.Fatalf("partition %d standby log %s: %v", pid, sdir, err)
			}
			for lsn, p := range got {
				w, ok := want[lsn]
				if !ok {
					continue
				}
				if !bytes.Equal(p, w) {
					t.Fatalf("partition %d LSN %d: standby payload %x, primary %x", pid, lsn, p, w)
				}
				kinds[p[0]]++
			}
		}
	}
	for _, k := range []byte{durability.KindTxn, durability.KindPut, durability.KindBucketIn, durability.KindBucketOut} {
		if kinds[k] == 0 {
			t.Fatalf("no shared record of kind %d compared (compared kinds: %v)", k, kinds)
		}
	}

	oracle, err := cluster.New(crashTestConfig(reg, ""))
	if err != nil {
		t.Fatal(err)
	}
	defer oracle.Stop()
	run(oracle)
	wantSum, wantRows, err := oracle.ContentChecksum()
	if err != nil {
		t.Fatal(err)
	}

	// The standby copy: a second data dir whose partitions hold nothing but
	// their standbys' logs. Its manifest drops the recorded homes, which
	// name the first dir's partition directories.
	standbyDir := t.TempDir()
	raw, err := os.ReadFile(filepath.Join(dir, "cluster.json"))
	if err != nil {
		t.Fatal(err)
	}
	var manifest map[string]any
	if err := json.Unmarshal(raw, &manifest); err != nil {
		t.Fatal(err)
	}
	delete(manifest, "homes")
	if raw, err = json.Marshal(manifest); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(standbyDir, "cluster.json"), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	for pid, sdirs := range standbys {
		if len(sdirs) != 1 {
			t.Fatalf("partition %d has %d standby logs, want 1", pid, len(sdirs))
		}
		copyDir(t, sdirs[0], filepath.Join(standbyDir, fmt.Sprintf("partition-%05d", pid)))
	}
	for _, from := range []string{dir, standbyDir} {
		rcfg := cfg
		rcfg.DataDir = from
		recovered, err := cluster.New(rcfg)
		if err != nil {
			t.Fatalf("recovering from %s: %v", from, err)
		}
		sum, rows, err := recovered.ContentChecksum()
		recovered.Stop()
		if err != nil {
			t.Fatal(err)
		}
		if sum != wantSum || rows != wantRows {
			t.Fatalf("recovered from %s: checksum %x (%d rows), oracle %x (%d rows)", from, sum, rows, wantSum, wantRows)
		}
	}
}

// copyDir copies the log segments and snapshots of src into dst.
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if ext := filepath.Ext(e.Name()); ext != ".log" && ext != ".snap" {
			continue
		}
		raw, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
