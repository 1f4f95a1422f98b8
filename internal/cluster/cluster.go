// Package cluster manages a multi-node, shared-nothing P-Store deployment:
// node lifecycle (scale-out adds nodes, scale-in retires them), the
// bucket→partition routing table that the migrator rewrites during live
// reconfigurations, and cluster-wide load and latency measurement.
package cluster

//pstore:deterministic — ContentChecksum and snapshot manifests are
// compared across chaos-seed replays; iteration order must not leak into
// them.

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"pstore/internal/durability"
	"pstore/internal/engine"
	"pstore/internal/metrics"
	"pstore/internal/replication"
	"pstore/internal/storage"
)

// Config describes a cluster deployment.
type Config struct {
	// InitialNodes is the number of nodes at startup.
	InitialNodes int
	// PartitionsPerNode is P: each node hosts this many serial executors
	// (the paper's experiments use 6).
	PartitionsPerNode int
	// NBuckets is the global hash-bucket count, the granularity of data
	// movement. It should be much larger than the maximum partition count.
	NBuckets int
	// Tables are created on every partition.
	Tables []string
	// Registry holds the stored procedures.
	Registry *engine.Registry
	// Engine configures every executor.
	Engine engine.Config
	// RetryInterval is the backoff between routing retries when a key's
	// bucket is in flight during a migration. Defaults to 200µs.
	RetryInterval time.Duration
	// RetryBudget bounds how long a transaction keeps retrying before
	// giving up. Defaults to 10s.
	RetryBudget time.Duration
	// RetryAttempts caps how many times a transaction is requeued while its
	// bucket is in flight, independent of RetryBudget, so the in-between
	// window of a bucket move can never spin unboundedly even with a tiny
	// RetryInterval. Defaults to RetryBudget / RetryInterval.
	RetryAttempts int
	// LatencyWindow is the aggregation window of the cluster's latency
	// percentiles (the paper windows by second; compressed-time
	// experiments use shorter windows). Defaults to 1s.
	LatencyWindow time.Duration
	// DataDir, when non-empty, enables durability: every partition gets a
	// command log plus snapshots under DataDir, committed transactions are
	// fsynced (group commit) before being acked, and New recovers existing
	// state found there instead of starting empty.
	DataDir string
	// Durability tunes the per-partition logs when DataDir is set.
	Durability durability.Options
	// ReplicationFactor is k: each partition's command log is shipped to k
	// standby replicas on other nodes, writes are acked only after every
	// live replica acks them, and a dead primary fails over to its most
	// caught-up replica. 0 disables replication.
	ReplicationFactor int
	// Replication tunes log shipping when ReplicationFactor > 0.
	Replication replication.Options
	// ReplicationConnWrap, when set, wraps every log-shipping connection
	// (both hub-accepted and tail-dialed) — the fault injection hook.
	ReplicationConnWrap func(net.Conn) net.Conn
	// Links, when set, is the network-partition matrix the cluster consults
	// for its in-process control paths: the failover monitor's probes and
	// its quorum vote honor blocked monitor↔node links instead of cheating
	// through shared memory.
	Links Links
	// LinkConnWrap, when set, wraps each standby tail connection with
	// directed link-matrix awareness: (conn, local endpoint, remote endpoint
	// resolver). The resolver is consulted per I/O so a tail tracks the
	// primary across failovers.
	LinkConnWrap func(conn net.Conn, local int, remote func() int) net.Conn
}

// Links is the cluster's view of a fault-injection partition matrix.
// Blocked(from, to) reports whether directed traffic from one endpoint to
// another is currently black-holed; the matrix is asymmetric by design.
type Links interface {
	Blocked(from, to int) bool
}

// MonitorNode is the link-matrix endpoint of the failover monitor, distinct
// from every node ID so chaos schedules can isolate the monitor's view of a
// node while clients still reach it (the classic split-brain inducement).
const MonitorNode = -1

func (c Config) retryInterval() time.Duration {
	if c.RetryInterval <= 0 {
		return 200 * time.Microsecond
	}
	return c.RetryInterval
}

func (c Config) retryBudget() time.Duration {
	if c.RetryBudget <= 0 {
		return 10 * time.Second
	}
	return c.RetryBudget
}

func (c Config) retryAttempts() int {
	if c.RetryAttempts > 0 {
		return c.RetryAttempts
	}
	n := int(c.retryBudget() / c.retryInterval())
	if n < 1 {
		n = 1
	}
	return n
}

// Node is one machine in the cluster, hosting PartitionsPerNode executors.
type Node struct {
	ID         int
	Partitions []int
}

// Cluster is a live deployment. All methods are safe for concurrent use.
type Cluster struct {
	cfg Config

	// route is the hot-path routing snapshot: an immutable bucket→partition
	// table plus partition→executor map, swapped atomically whenever the
	// topology or ownership changes. Transaction routing reads it with one
	// atomic load — no lock — so reconfigurations never stall the request
	// path, and the request path never stalls reconfigurations.
	route atomic.Pointer[routing]

	mu        sync.RWMutex
	nodes     []*Node                  // sorted by ID
	execs     map[int]*engine.Executor // partition → executor (master copy)
	durs      map[int]*durability.Manager
	homes     map[int]string // partition → durable log dir (failover can move it off the default)
	owner     []int          // bucket → partition (master copy)
	nextNode  int
	nextPart  int
	stopped   bool
	recovered bool

	snapStop chan struct{} // stops the periodic snapshot loop
	snapDone chan struct{}

	// Replication state (nil maps when ReplicationFactor == 0); the
	// methods live in replication.go. feeds/replicas/epochs are guarded by
	// c.mu; failoverMu serializes failovers so two probes of the same dead
	// primary cannot promote twice.
	hub        *replication.Hub
	feeds      map[int]*replication.Feed
	replicas   map[int][]*replicaHandle
	epochs     map[int]uint64
	deadNodes  map[int]bool
	rrSeq      atomic.Uint64 // replica read round-robin cursor
	monStop    chan struct{}
	monDone    chan struct{}
	failoverMu sync.Mutex

	// stale holds deposed-but-unreachable primaries: the quorum vote deposed
	// them while a partition hid them from the monitor, so their executors
	// could not be stopped in place. The monitor sweeps them once the links
	// heal; hub-side epoch fencing keeps them harmless in between.
	stale []*stalePrimary
	// respawnPaused suspends standby respawning — a test hook for staging
	// double faults deterministically.
	respawnPaused bool

	latencies  *metrics.ShardedRecorder
	offered    *metrics.Counter
	allocLog   *metrics.AllocationTracker
	events     *metrics.Events
	moveStalls *metrics.DurationHist

	reconfigMu sync.Mutex
	reconfig   bool
}

// New starts a cluster with the configured initial nodes; buckets are dealt
// round-robin across the initial partitions.
func New(cfg Config) (*Cluster, error) {
	if cfg.InitialNodes < 1 {
		return nil, fmt.Errorf("cluster: InitialNodes must be ≥ 1, got %d", cfg.InitialNodes)
	}
	if cfg.PartitionsPerNode < 1 {
		return nil, fmt.Errorf("cluster: PartitionsPerNode must be ≥ 1, got %d", cfg.PartitionsPerNode)
	}
	if cfg.NBuckets < cfg.InitialNodes*cfg.PartitionsPerNode {
		return nil, fmt.Errorf("cluster: NBuckets %d below initial partition count", cfg.NBuckets)
	}
	if cfg.Registry == nil {
		return nil, errors.New("cluster: Registry is required")
	}
	window := cfg.LatencyWindow
	if window <= 0 {
		window = time.Second
	}
	c := &Cluster{
		cfg:        cfg,
		execs:      make(map[int]*engine.Executor),
		durs:       make(map[int]*durability.Manager),
		homes:      make(map[int]string),
		owner:      make([]int, cfg.NBuckets),
		latencies:  metrics.NewShardedRecorder(window),
		offered:    metrics.NewCounter(time.Second),
		allocLog:   metrics.NewAllocationTracker(time.Now(), cfg.InitialNodes),
		events:     metrics.NewEvents(),
		moveStalls: metrics.NewDurationHist(),
	}
	if cfg.ReplicationFactor > 0 {
		if err := c.initReplication(); err != nil {
			return nil, err
		}
	}
	if cfg.DataDir != "" {
		if err := os.MkdirAll(cfg.DataDir, 0o755); err != nil {
			return nil, fmt.Errorf("cluster: data dir: %w", err)
		}
		if _, err := os.Stat(c.manifestPath()); err == nil {
			if err := c.recover(); err != nil {
				return nil, err
			}
			c.startSnapshotLoop()
			if c.replicationEnabled() {
				c.startReplicationStandbys()
			}
			return c, nil
		} else if !errors.Is(err, os.ErrNotExist) {
			return nil, err
		}
	}
	nParts := cfg.InitialNodes * cfg.PartitionsPerNode
	ownedBy := make([][]int, nParts)
	for b := 0; b < cfg.NBuckets; b++ {
		p := b % nParts
		ownedBy[p] = append(ownedBy[p], b)
		c.owner[b] = p
	}
	for n := 0; n < cfg.InitialNodes; n++ {
		node := &Node{ID: c.nextNode}
		c.nextNode++
		for i := 0; i < cfg.PartitionsPerNode; i++ {
			pid := c.nextPart
			c.nextPart++
			part := storage.NewPartition(pid, cfg.NBuckets, ownedBy[pid])
			for _, t := range cfg.Tables {
				part.CreateTable(t)
			}
			if err := c.startPartition(pid, part, true); err != nil {
				return nil, err
			}
			node.Partitions = append(node.Partitions, pid)
		}
		c.nodes = append(c.nodes, node)
	}
	if cfg.DataDir != "" {
		if err := c.writeManifestLocked(); err != nil {
			return nil, err
		}
	}
	c.publishRoutingLocked()
	c.startSnapshotLoop()
	if c.replicationEnabled() {
		c.startReplicationStandbys()
	}
	return c, nil
}

// routing is one immutable snapshot of the request-routing state.
type routing struct {
	owner []int                    // bucket → partition
	execs map[int]*engine.Executor // partition → executor
	feeds map[int]*replication.Feed
}

// publishRoutingLocked rebuilds and swaps the routing snapshot from the
// master copies. Caller holds c.mu (or owns c exclusively during New), so
// writers are serialized; readers are never blocked.
func (c *Cluster) publishRoutingLocked() {
	rt := &routing{
		owner: append([]int(nil), c.owner...),
		execs: make(map[int]*engine.Executor, len(c.execs)),
	}
	for pid, e := range c.execs {
		rt.execs[pid] = e
	}
	if len(c.feeds) > 0 {
		rt.feeds = make(map[int]*replication.Feed, len(c.feeds))
		for pid, f := range c.feeds {
			rt.feeds[pid] = f
		}
	}
	c.route.Store(rt)
}

// linkBlocked consults the configured partition matrix; with no matrix, no
// link is ever blocked.
func (c *Cluster) linkBlocked(from, to int) bool {
	return c.cfg.Links != nil && c.cfg.Links.Blocked(from, to)
}

// startPartition opens the partition's durability manager (when enabled),
// optionally writes an initial snapshot so its bucket ownership is durable
// from the first moment, and launches the executor. Caller holds c.mu or
// owns c exclusively.
func (c *Cluster) startPartition(pid int, part *storage.Partition, initialSnapshot bool) error {
	ecfg := c.cfg.Engine
	var mgr *durability.Manager
	if c.cfg.DataDir != "" {
		m, err := durability.Open(c.partitionDir(pid), pid, c.cfg.Durability)
		if err != nil {
			return fmt.Errorf("cluster: partition %d durability: %w", pid, err)
		}
		if initialSnapshot {
			if err := m.Snapshot(part); err != nil {
				m.Close()
				return fmt.Errorf("cluster: partition %d initial snapshot: %w", pid, err)
			}
		}
		mgr = m
		c.durs[pid] = mgr
		c.homes[pid] = c.partitionDir(pid)
		ecfg.Log = mgr
	}
	if c.replicationEnabled() {
		ecfg.Log = c.installFeedLocked(pid, mgr)
	}
	c.execs[pid] = engine.NewExecutor(part, c.cfg.Registry, ecfg)
	return nil
}

func (c *Cluster) manifestPath() string { return filepath.Join(c.cfg.DataDir, "cluster.json") }

func (c *Cluster) partitionDir(pid int) string {
	return filepath.Join(c.cfg.DataDir, fmt.Sprintf("partition-%05d", pid))
}

// replicaDir is where a durable standby of the partition keeps its own
// command log when hosted on the given node. Promotion turns this directory
// into the partition's durable home.
func (c *Cluster) replicaDir(pid, nid int) string {
	return filepath.Join(c.cfg.DataDir, fmt.Sprintf("replica-p%05d-n%03d", pid, nid))
}

// manifest is the durable cluster layout: which nodes exist and which
// partitions they host. Bucket ownership is NOT here — each partition's own
// snapshot+log is the authority, so the manifest never races with
// migrations.
type manifest struct {
	NBuckets          int            `json:"nbuckets"`
	PartitionsPerNode int            `json:"partitions_per_node"`
	NextNode          int            `json:"next_node"`
	NextPart          int            `json:"next_part"`
	Nodes             []manifestNode `json:"nodes"`
	// Homes records, per partition, the durable log directory — after a
	// failover promotes a durable standby, the partition's authoritative log
	// is the standby's, not the default partition-NNNNN directory. Recovery
	// must replay the recorded home or it resurrects deposed history.
	Homes map[string]string `json:"homes,omitempty"`
	// Epochs records each partition's replication epoch. Written before the
	// promoted primary is routable, this is the durable fencing record: a
	// recovering cluster resumes above every epoch that ever acked a write.
	Epochs map[string]uint64 `json:"epochs,omitempty"`
}

type manifestNode struct {
	ID         int   `json:"id"`
	Partitions []int `json:"partitions"`
}

// writeManifestLocked persists the node/partition layout (atomic rename).
// Caller holds c.mu or owns c exclusively.
func (c *Cluster) writeManifestLocked() error {
	m := manifest{
		NBuckets:          c.cfg.NBuckets,
		PartitionsPerNode: c.cfg.PartitionsPerNode,
		NextNode:          c.nextNode,
		NextPart:          c.nextPart,
	}
	for _, n := range c.nodes {
		m.Nodes = append(m.Nodes, manifestNode{ID: n.ID, Partitions: append([]int(nil), n.Partitions...)})
	}
	if len(c.homes) > 0 {
		m.Homes = make(map[string]string, len(c.homes))
		for pid, dir := range c.homes {
			m.Homes[strconv.Itoa(pid)] = dir
		}
	}
	if len(c.epochs) > 0 {
		m.Epochs = make(map[string]uint64, len(c.epochs))
		for pid, e := range c.epochs {
			m.Epochs[strconv.Itoa(pid)] = e
		}
	}
	raw, err := json.MarshalIndent(&m, "", "  ")
	if err != nil {
		return err
	}
	tmp := c.manifestPath() + ".tmp"
	if err := os.WriteFile(tmp, raw, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, c.manifestPath())
}

// recover rebuilds the cluster from DataDir: the manifest gives the
// node/partition layout, every partition replays its snapshot + log tail,
// and the routing table is rebuilt from the recovered bucket ownership.
func (c *Cluster) recover() error {
	raw, err := os.ReadFile(c.manifestPath())
	if err != nil {
		return err
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return fmt.Errorf("cluster: manifest: %w", err)
	}
	if m.NBuckets != c.cfg.NBuckets {
		return fmt.Errorf("cluster: data dir has %d buckets, config wants %d", m.NBuckets, c.cfg.NBuckets)
	}
	if m.PartitionsPerNode != c.cfg.PartitionsPerNode {
		return fmt.Errorf("cluster: data dir has %d partitions/node, config wants %d",
			m.PartitionsPerNode, c.cfg.PartitionsPerNode)
	}
	c.nextNode = m.NextNode
	c.nextPart = m.NextPart
	c.recovered = true
	for k, e := range m.Epochs {
		pid, perr := strconv.Atoi(k)
		if perr != nil {
			return fmt.Errorf("cluster: manifest epoch key %q: %w", k, perr)
		}
		if c.epochs != nil {
			c.epochs[pid] = e
		}
	}
	homes := make(map[int]string, len(m.Homes))
	for k, dir := range m.Homes {
		pid, perr := strconv.Atoi(k)
		if perr != nil {
			return fmt.Errorf("cluster: manifest home key %q: %w", k, perr)
		}
		homes[pid] = dir
	}

	type recovered struct {
		part  *storage.Partition
		mgr   *durability.Manager
		stats durability.ReplayStats
	}
	parts := make(map[int]*recovered)
	var pids []int
	for _, mn := range m.Nodes {
		node := &Node{ID: mn.ID, Partitions: append([]int(nil), mn.Partitions...)}
		c.nodes = append(c.nodes, node)
		for _, pid := range mn.Partitions {
			part := storage.NewPartition(pid, c.cfg.NBuckets, nil)
			for _, t := range c.cfg.Tables {
				part.CreateTable(t)
			}
			dir, ok := homes[pid]
			if !ok {
				dir = c.partitionDir(pid)
			}
			c.homes[pid] = dir
			mgr, err := durability.Open(dir, pid, c.cfg.Durability)
			if err != nil {
				return fmt.Errorf("cluster: partition %d durability: %w", pid, err)
			}
			stats, err := mgr.Recover(part, c.cfg.Registry)
			if err != nil {
				mgr.Close()
				return fmt.Errorf("cluster: recovering partition %d: %w", pid, err)
			}
			parts[pid] = &recovered{part: part, mgr: mgr, stats: stats}
			pids = append(pids, pid)
		}
	}
	sort.Ints(pids)

	// Rebuild routing from recovered ownership. A crash between a bucket's
	// durable arrival at the receiver and the sender's durable handoff
	// record leaves both partitions claiming it; the receiver (whose claim
	// comes from a bucket-in record) wins, since post-handoff transactions
	// were logged there. A bucket nobody claims is re-adopted empty,
	// round-robin.
	claim := make([]int, c.cfg.NBuckets)
	for i := range claim {
		claim[i] = -1
	}
	dirty := make(map[int]bool) // partitions whose state changed during resolution
	for _, pid := range pids {
		r := parts[pid]
		for _, b := range r.part.OwnedBuckets() {
			prev := claim[b]
			if prev < 0 {
				claim[b] = pid
				continue
			}
			// Conflict: prefer the handoff receiver.
			loser, winner := pid, prev
			if r.stats.FromHandoff[b] && !parts[prev].stats.FromHandoff[b] {
				loser, winner = prev, pid
			}
			claim[b] = winner
			if err := parts[loser].part.DropBucket(b); err != nil {
				return fmt.Errorf("cluster: resolving bucket %d ownership: %w", b, err)
			}
			dirty[loser] = true
		}
	}
	for b, pid := range claim {
		if pid >= 0 {
			c.owner[b] = pid
			continue
		}
		adopt := pids[b%len(pids)]
		if err := parts[adopt].part.ApplyBucket(&storage.BucketData{Bucket: b, Tables: map[string][]storage.Row{}}); err != nil {
			return fmt.Errorf("cluster: re-adopting lost bucket %d: %w", b, err)
		}
		c.owner[b] = adopt
		dirty[adopt] = true
	}
	for pid := range dirty {
		if err := parts[pid].mgr.Snapshot(parts[pid].part); err != nil {
			return fmt.Errorf("cluster: snapshotting resolved partition %d: %w", pid, err)
		}
	}
	for _, pid := range pids {
		r := parts[pid]
		ecfg := c.cfg.Engine
		ecfg.Log = r.mgr
		c.durs[pid] = r.mgr
		if c.replicationEnabled() {
			ecfg.Log = c.installFeedLocked(pid, r.mgr)
		}
		c.execs[pid] = engine.NewExecutor(r.part, c.cfg.Registry, ecfg)
	}
	c.publishRoutingLocked()
	c.allocLog.Set(time.Now(), len(c.nodes))
	return nil
}

// Recovered reports whether New restored existing state from DataDir
// (callers use it to skip re-preloading data).
func (c *Cluster) Recovered() bool { return c.recovered }

// DurabilityOf returns the partition's durability manager, or nil when
// durability is disabled (or the partition is gone).
func (c *Cluster) DurabilityOf(partition int) *durability.Manager {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.durs[partition]
}

// startSnapshotLoop launches the periodic snapshot/truncate loop when
// configured.
func (c *Cluster) startSnapshotLoop() {
	if c.cfg.DataDir == "" || c.cfg.Durability.SnapshotInterval <= 0 {
		return
	}
	// Capture the channels: stopSnapshotLoop nils the fields, and a
	// receive on a re-read nil field would park this goroutine forever.
	stop := make(chan struct{})
	done := make(chan struct{})
	c.snapStop, c.snapDone = stop, done
	go func() {
		defer close(done)
		ticker := time.NewTicker(c.cfg.Durability.SnapshotInterval)
		defer ticker.Stop()
		for {
			select {
			case <-stop:
				return
			case <-ticker.C:
				c.SnapshotAll()
			}
		}
	}()
}

// SnapshotAll snapshots every partition (through its executor, so each
// snapshot is consistent) and truncates its log. Partitions that stop
// mid-iteration are skipped.
func (c *Cluster) SnapshotAll() error {
	c.mu.RLock()
	type pair struct {
		exec *engine.Executor
		mgr  *durability.Manager
	}
	// Snapshot in partition order: the manifest written per snapshot round
	// is compared across runs, so the iteration order must be stable.
	pids := make([]int, 0, len(c.durs))
	for pid := range c.durs {
		pids = append(pids, pid)
	}
	sort.Ints(pids)
	var pairs []pair
	for _, pid := range pids {
		if e, ok := c.execs[pid]; ok {
			pairs = append(pairs, pair{e, c.durs[pid]})
		}
	}
	c.mu.RUnlock()
	var firstErr error
	for _, pr := range pairs {
		mgr := pr.mgr
		err := pr.exec.Do(func(p *storage.Partition) (int, error) {
			return 0, mgr.Snapshot(p)
		})
		if err != nil && !errors.Is(err, engine.ErrStopped) && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Stop shuts down the cluster: the snapshot and failover loops first, then
// (with durability on) a final snapshot of every partition so restart needs
// no replay, then every executor, then the logs are flushed and closed and
// the replication machinery (feeds, standbys, hub) is torn down.
func (c *Cluster) Stop() {
	c.stopSnapshotLoop()
	c.stopMonitor()
	c.mu.Lock()
	if c.stopped {
		c.mu.Unlock()
		return
	}
	c.stopped = true
	c.mu.Unlock()
	if c.cfg.DataDir != "" {
		c.SnapshotAll()
	}
	c.mu.Lock()
	for _, e := range c.execs {
		e.Stop() //pstore:ignore lockdiscipline — executor goroutines never take c.mu, so waiting out their drain under the lock cannot deadlock
	}
	for _, m := range c.durs {
		m.Close()
	}
	for _, f := range c.feeds {
		f.Close()
	}
	var handles []*replicaHandle
	for _, hs := range c.replicas { //pstore:ignore determinism — shutdown kill-list; every handle is stopped, order across partitions is unobservable
		handles = append(handles, hs...)
	}
	stale := c.stale
	c.stale = nil
	hub := c.hub
	c.mu.Unlock()
	for _, h := range handles {
		h.rep.Kill()
		h.tail.Stop()
	}
	for _, s := range stale {
		s.teardown()
	}
	if hub != nil {
		hub.Close()
	}
}

func (c *Cluster) stopSnapshotLoop() {
	c.mu.Lock()
	stop, done := c.snapStop, c.snapDone
	c.snapStop, c.snapDone = nil, nil
	c.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
}

// Crash is a test hook simulating the whole process dying: executors stop
// without final snapshots, and each log abandons its un-fsynced buffer.
// Acknowledged transactions survive (group commit fsynced them before the
// ack); in-flight ones may not — exactly a real crash's contract.
func (c *Cluster) Crash() {
	c.stopSnapshotLoop()
	c.stopMonitor()
	c.mu.Lock()
	if c.stopped {
		c.mu.Unlock()
		return
	}
	c.stopped = true
	for _, e := range c.execs {
		e.Stop() //pstore:ignore lockdiscipline — executor goroutines never take c.mu, so waiting out their drain under the lock cannot deadlock
	}
	for _, f := range c.feeds {
		f.Close()
	}
	for _, m := range c.durs {
		m.Crash()
	}
	var handles []*replicaHandle
	for _, hs := range c.replicas { //pstore:ignore determinism — shutdown kill-list; every handle is stopped, order across partitions is unobservable
		handles = append(handles, hs...)
	}
	stale := c.stale
	c.stale = nil
	hub := c.hub
	c.mu.Unlock()
	for _, h := range handles {
		h.rep.Kill()
		h.tail.Stop()
	}
	for _, s := range stale {
		s.teardown()
	}
	if hub != nil {
		hub.Close()
	}
}

// NumNodes returns the current node count.
func (c *Cluster) NumNodes() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.nodes)
}

// Nodes returns a snapshot of the current nodes, ordered by ID.
func (c *Cluster) Nodes() []Node {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]Node, len(c.nodes))
	for i, n := range c.nodes {
		out[i] = Node{ID: n.ID, Partitions: append([]int(nil), n.Partitions...)}
	}
	return out
}

// AddNode provisions a new empty node (no buckets) and returns it. Data
// arrives via migration.
func (c *Cluster) AddNode() Node {
	c.mu.Lock()
	defer c.mu.Unlock()
	node := &Node{ID: c.nextNode}
	c.nextNode++
	for i := 0; i < c.cfg.PartitionsPerNode; i++ {
		pid := c.nextPart
		c.nextPart++
		part := storage.NewPartition(pid, c.cfg.NBuckets, nil)
		for _, t := range c.cfg.Tables {
			part.CreateTable(t)
		}
		// A scale-out node must be fully durable (empty snapshot + open
		// log) before any bucket migrates onto it; failures here are
		// programming or I/O errors surfaced loudly.
		if err := c.startPartition(pid, part, true); err != nil {
			panic(fmt.Sprintf("cluster: AddNode: %v", err))
		}
		node.Partitions = append(node.Partitions, pid)
	}
	c.nodes = append(c.nodes, node)
	if c.cfg.DataDir != "" {
		if err := c.writeManifestLocked(); err != nil {
			panic(fmt.Sprintf("cluster: AddNode manifest: %v", err))
		}
	}
	c.publishRoutingLocked()
	c.allocLog.Set(time.Now(), len(c.nodes))
	return Node{ID: node.ID, Partitions: append([]int(nil), node.Partitions...)}
}

// RemoveNode retires a node whose partitions no longer own any buckets.
// Standby replicas it hosted stop serving; the failover monitor respawns
// them elsewhere.
func (c *Cluster) RemoveNode(id int) error {
	c.mu.Lock()
	idx := -1
	for i, n := range c.nodes {
		if n.ID == id {
			idx = i
			break
		}
	}
	if idx < 0 {
		c.mu.Unlock()
		return fmt.Errorf("cluster: no node %d", id)
	}
	if len(c.nodes) == 1 {
		c.mu.Unlock()
		return errors.New("cluster: cannot remove the last node")
	}
	node := c.nodes[idx]
	for _, pid := range node.Partitions {
		for _, owner := range c.owner {
			if owner == pid {
				c.mu.Unlock()
				return fmt.Errorf("cluster: node %d partition %d still owns buckets", id, pid)
			}
		}
	}
	var doomedFeeds []*replication.Feed
	var doomedReps []*replicaHandle
	for _, pid := range node.Partitions {
		c.execs[pid].Stop() //pstore:ignore lockdiscipline — executor goroutines never take c.mu, so waiting out their drain under the lock cannot deadlock
		delete(c.execs, pid)
		if f, ok := c.feeds[pid]; ok {
			doomedFeeds = append(doomedFeeds, f)
			delete(c.feeds, pid)
			delete(c.epochs, pid)
			c.hub.Deregister(pid)
			doomedReps = append(doomedReps, c.replicas[pid]...)
			delete(c.replicas, pid)
		}
		if mgr, ok := c.durs[pid]; ok {
			// The partitions own nothing: their durable state is obsolete.
			mgr.Close()
			delete(c.durs, pid)
			dir := c.homes[pid]
			if dir == "" {
				dir = c.partitionDir(pid)
			}
			delete(c.homes, pid)
			if err := os.RemoveAll(dir); err != nil {
				c.mu.Unlock()
				return fmt.Errorf("cluster: removing partition %d data: %w", pid, err)
			}
		}
	}
	// Standbys of other partitions hosted here lose their home too.
	for pid, hs := range c.replicas { //pstore:ignore determinism — eviction sweep; all doomed standbys are killed, order across partitions is unobservable
		keep := hs[:0]
		for _, h := range hs {
			if h.node == id {
				doomedReps = append(doomedReps, h)
			} else {
				keep = append(keep, h)
			}
		}
		c.replicas[pid] = keep
	}
	delete(c.deadNodes, id)
	c.nodes = append(c.nodes[:idx], c.nodes[idx+1:]...)
	if c.cfg.DataDir != "" {
		if err := c.writeManifestLocked(); err != nil {
			c.mu.Unlock()
			return err
		}
	}
	c.publishRoutingLocked()
	c.allocLog.Set(time.Now(), len(c.nodes))
	c.mu.Unlock()
	for _, f := range doomedFeeds {
		f.Close()
	}
	for _, h := range doomedReps {
		h.rep.Kill()
		h.tail.Stop()
	}
	return nil
}

// BeginReconfiguration takes the cluster's reconfiguration lock. Exactly
// one reconfiguration may run at a time: concurrent bucket moves would race
// on ownership. It returns false if another reconfiguration is in progress.
func (c *Cluster) BeginReconfiguration() bool {
	c.reconfigMu.Lock()
	defer c.reconfigMu.Unlock()
	if c.reconfig {
		return false
	}
	c.reconfig = true
	return true
}

// EndReconfiguration releases the reconfiguration lock.
func (c *Cluster) EndReconfiguration() {
	c.reconfigMu.Lock()
	c.reconfig = false
	c.reconfigMu.Unlock()
}

// Reconfiguring reports whether a reconfiguration is in progress.
func (c *Cluster) Reconfiguring() bool {
	c.reconfigMu.Lock()
	defer c.reconfigMu.Unlock()
	return c.reconfig
}

// OwnerOf returns the partition currently owning the bucket.
func (c *Cluster) OwnerOf(bucket int) int {
	return c.route.Load().owner[bucket]
}

// SetOwner points the routing table for a bucket at a partition. The
// migrator calls this when it starts moving the bucket, so retries land on
// the destination. Readers see the swap atomically via the routing
// snapshot; they are never blocked.
func (c *Cluster) SetOwner(bucket, partition int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.owner[bucket] = partition
	c.publishRoutingLocked()
}

// MoveStalls is the histogram of per-bucket-move foreground stall windows
// (source extraction → durable destination apply) — the paper's effective-
// capacity cost of a reconfiguration, measured directly.
func (c *Cluster) MoveStalls() *metrics.DurationHist { return c.moveStalls }

// ExecutorOf returns the executor hosting the partition.
func (c *Cluster) ExecutorOf(partition int) (*engine.Executor, bool) {
	e, ok := c.route.Load().execs[partition]
	return e, ok
}

// RouteKey returns the partition a key currently routes to.
func (c *Cluster) RouteKey(key string) int {
	return c.OwnerOf(storage.BucketOf(key, c.cfg.NBuckets))
}

// NBuckets returns the global bucket count.
func (c *Cluster) NBuckets() int { return c.cfg.NBuckets }

// PartitionsPerNode returns P.
func (c *Cluster) PartitionsPerNode() int { return c.cfg.PartitionsPerNode }

// Call routes a transaction by its key and executes it: CallAsync plus a
// pooled waiter, so a synchronous call shares every routing, retry and
// timing rule of the asynchronous one.
func (c *Cluster) Call(txn *engine.Txn) engine.Result {
	w := engine.AcquireWaiter()
	c.CallAsync(txn, w)
	return w.Wait()
}

// CallAsync routes and executes a transaction, delivering the result
// through comp instead of blocking the caller: the reply is produced
// directly on the executor's completion path, so a server connection can
// dispatch a call and return to its read loop without parking a goroutine
// per in-flight transaction. comp.Complete must be non-blocking (it runs on
// the executor or group-commit goroutine) and may be invoked synchronously
// on the caller's goroutine when admission control sheds the call.
//
// A transaction that never ran — its bucket in flight between partitions,
// its executor stopped or fenced mid-route, its primary below the write
// quorum — is retried, bounded both in time (RetryBudget) and in attempts
// (RetryAttempts), and every retry is counted in Events as a migration
// retry: a transaction can observe the in-between window of a bucket move,
// but never spin in it unboundedly or silently. Overload fast-fails
// (engine.ErrOverloaded) are never retried here: shedding exists to cut
// queueing, so the client gets the typed error (and a retry-after hint over
// the wire) immediately. End-to-end latency, retries and queueing included,
// is recorded in Latencies.
func (c *Cluster) CallAsync(txn *engine.Txn, comp engine.Completion) {
	start := time.Now()
	c.offered.Add(start, 1)
	c.dispatch(txn, comp, start, false)
}

// call is one routed transaction's state machine, from its first attempt
// to its completion: attempt routes and dispatches it, Complete retries or
// finishes it. It is the one place a routed transaction is re-dispatched.
// Pooled so the steady-state call path allocates nothing.
type call struct {
	c        *Cluster
	txn      *engine.Txn
	comp     engine.Completion
	start    time.Time
	bucket   int
	attempts int
	// readOnly skips the quorum gate: a quorum-degraded primary still
	// serves reads.
	readOnly bool
	// retry re-arms attempt after the retry interval. It stays with the
	// pooled call, so retrying allocates no timer.
	retry *time.Timer
}

var calls = sync.Pool{New: func() any { return new(call) }}

// dispatch starts a call whose offered load the caller has already counted.
func (c *Cluster) dispatch(txn *engine.Txn, comp engine.Completion, start time.Time, readOnly bool) {
	a := calls.Get().(*call)
	a.c, a.txn, a.comp, a.start, a.readOnly = c, txn, comp, start, readOnly
	a.bucket = storage.BucketOf(txn.Key, c.cfg.NBuckets)
	a.attempt()
}

// errNoExecutor marks a route whose owner has no executor (a node
// mid-removal): the transaction never ran, so it is retried.
var errNoExecutor = errors.New("cluster: no executor for partition")

// attempt routes the call against the current snapshot — one atomic load
// covers both the ownership and the executor lookup — and dispatches it.
// The call must not be touched afterwards: Complete may already have
// recycled it.
func (a *call) attempt() {
	a.attempts++
	rt := a.c.route.Load()
	pid := rt.owner[a.bucket]
	exec, ok := rt.execs[pid]
	if !ok {
		a.Complete(engine.Result{Err: fmt.Errorf("%w %d", errNoExecutor, pid)})
		return
	}
	if !a.readOnly {
		if err := a.c.quorumGate(rt, pid); err != nil {
			a.Complete(engine.Result{Err: err, Partition: pid})
			return
		}
	}
	exec.CallAsync(a.txn, a)
}

// Complete runs on the executor or group-commit goroutine (or the caller's,
// for a call refused before execution). A retriable outcome within the
// budget re-arms attempt on a timer, so nothing parks and no goroutine is
// spawned; anything else stamps and records the latency once and hands the
// result to the caller's completion.
func (a *call) Complete(res engine.Result) {
	c := a.c
	if errors.Is(res.Err, engine.ErrOverloaded) {
		c.events.Add(metrics.EventShed, 1)
	} else if retriable(res.Err) && a.attempts < c.cfg.retryAttempts() &&
		time.Since(a.start) <= c.cfg.retryBudget() {
		c.events.Add(metrics.EventMigrationRetries, 1)
		if a.retry == nil {
			// Created unarmed, so the field is set before attempt can run.
			a.retry = time.AfterFunc(math.MaxInt64, a.attempt)
		}
		a.retry.Reset(c.cfg.retryInterval())
		return
	}
	now := time.Now()
	res.Latency = now.Sub(a.start)
	c.latencies.Record(now, res.Latency)
	comp := a.comp
	*a = call{retry: a.retry}
	calls.Put(a)
	comp.Complete(res)
}

// quorumGate sheds a transaction before execution when the partition's
// primary cannot currently acknowledge writes: it has lost its subscriber
// quorum (self-fencing) or holds a fenced/closed feed (stale routing
// mid-failover). Shedding pre-execution is what keeps the error safely
// retryable — a write refused only after running would already have mutated
// the primary, and a client retry would double-apply it. Reads routed via
// CallReadOnly are never gated: a quorum-degraded primary still serves them.
func (c *Cluster) quorumGate(rt *routing, pid int) error {
	f := rt.feeds[pid]
	if f == nil {
		return nil
	}
	err := f.Available()
	if err != nil && errors.Is(err, replication.ErrQuorumLost) {
		c.events.Add(metrics.EventReplQuorumLostWrites, 1)
	}
	return err
}

// retriable reports whether err means the transaction never ran (bucket in
// flight, no executor for the owner, executor stopped or fenced mid-route,
// primary below its write quorum, replication ack window full) and may
// safely be requeued.
func retriable(err error) bool {
	return err != nil && (storage.IsNotOwned(err) ||
		errors.Is(err, errNoExecutor) ||
		errors.Is(err, engine.ErrStopped) ||
		errors.Is(err, replication.ErrFenced) ||
		errors.Is(err, replication.ErrClosed) ||
		errors.Is(err, replication.ErrQuorumLost) ||
		errors.Is(err, replication.ErrWindowFull))
}

// LoadRow inserts a row directly into whichever partition owns the key,
// bypassing stored procedures and synthetic service time. For bulk-loading
// benchmark data. Loads bypass the fsynced command log (with durability on,
// call SnapshotAll after bulk loading to checkpoint them) but still ship to
// replicas — standbys must see every row a primary holds.
func (c *Cluster) LoadRow(table, key string, cols map[string]string) error {
	for attempt := 0; attempt < 64; attempt++ {
		pid := c.RouteKey(key)
		c.mu.RLock()
		exec := c.execs[pid]
		feed := c.feeds[pid]
		c.mu.RUnlock()
		if exec == nil {
			return fmt.Errorf("cluster: no executor for partition %d", pid)
		}
		err := exec.Do(func(p *storage.Partition) (int, error) {
			if perr := p.Put(table, key, cols); perr != nil {
				return 0, perr
			}
			if feed != nil {
				return 0, feed.LogPut(table, key, cols)
			}
			return 0, nil
		})
		if storage.IsNotOwned(err) ||
			errors.Is(err, engine.ErrStopped) ||
			errors.Is(err, replication.ErrFenced) ||
			errors.Is(err, replication.ErrClosed) ||
			errors.Is(err, replication.ErrQuorumLost) {
			time.Sleep(c.cfg.retryInterval())
			continue
		}
		return err
	}
	return fmt.Errorf("cluster: LoadRow %q: bucket stayed in flight", key)
}

// TotalRows counts rows across all partitions. Counting runs through each
// executor, so it is consistent per partition but not globally atomic.
func (c *Cluster) TotalRows() (int, error) {
	total := 0
	for _, e := range c.executors() {
		n := 0
		err := e.Do(func(p *storage.Partition) (int, error) {
			n = p.RowCount()
			return 0, nil
		})
		if err != nil {
			return 0, err
		}
		total += n
	}
	return total, nil
}

// BucketCounts returns the number of buckets owned per partition.
func (c *Cluster) BucketCounts() map[int]int {
	rt := c.route.Load()
	out := make(map[int]int)
	for _, pid := range rt.owner {
		out[pid]++
	}
	return out
}

// executors returns a snapshot of all executors ordered by partition ID.
func (c *Cluster) executors() []*engine.Executor {
	c.mu.RLock()
	defer c.mu.RUnlock()
	pids := make([]int, 0, len(c.execs))
	for pid := range c.execs {
		pids = append(pids, pid)
	}
	sort.Ints(pids)
	out := make([]*engine.Executor, len(pids))
	for i, pid := range pids {
		out[i] = c.execs[pid]
	}
	return out
}

// Executors returns all executors ordered by partition ID.
func (c *Cluster) Executors() []*engine.Executor { return c.executors() }

// Latencies returns the cluster-wide end-to-end latency recorder.
func (c *Cluster) Latencies() *metrics.ShardedRecorder { return c.latencies }

// OfferedLoad returns the counter of submitted transactions per second.
func (c *Cluster) OfferedLoad() *metrics.Counter { return c.offered }

// Allocation returns the machine-count tracker (for Eq. 1 cost accounting).
func (c *Cluster) Allocation() *metrics.AllocationTracker { return c.allocLog }

// Events returns the cluster's rare-path event counters (load sheds,
// migration retries, injected faults).
func (c *Cluster) Events() *metrics.Events { return c.events }

// ShedTotal sums admission-control drops across all current executors.
func (c *Cluster) ShedTotal() int64 {
	var n int64
	for _, e := range c.executors() {
		n += e.Shed()
	}
	return n
}

// ShedRetryAfter is the backoff hint attached to overload fast-fails: half
// the time a full executor queue needs to drain, clamped to [1ms, 2s]. A
// client that waits this long before retrying arrives when roughly half the
// backlog has cleared instead of piling onto a saturated queue.
func (c *Cluster) ShedRetryAfter() time.Duration {
	depth := c.cfg.Engine.QueueDepth
	if depth <= 0 {
		depth = 8192
	}
	hint := time.Duration(depth) * c.cfg.Engine.ServiceTime / 2
	if hint < time.Millisecond {
		hint = time.Millisecond
	}
	if hint > 2*time.Second {
		hint = 2 * time.Second
	}
	return hint
}

// FenceRetryAfter is the backoff hint attached to writes shed while their
// primary is fenced or below its write quorum: two monitor health intervals,
// since the monitor needs at least one probe-and-respawn round to restore
// the quorum or promote a successor.
func (c *Cluster) FenceRetryAfter() time.Duration {
	d := 2 * c.replOpts().HealthInterval
	if d < 10*time.Millisecond {
		d = 10 * time.Millisecond
	}
	return d
}

// ContentChecksum returns an order-independent FNV-1a checksum over every
// row in the cluster (table, key, sorted columns), plus the row count.
// Chaos tests compare it before and after a faulty reconfiguration to prove
// no row was lost or duplicated. Each partition is read through its
// executor, so per-partition reads are consistent; run it while the
// workload is quiesced for a globally exact answer.
func (c *Cluster) ContentChecksum() (uint64, int, error) {
	var sum uint64
	rows := 0
	for _, e := range c.executors() {
		err := e.Do(func(p *storage.Partition) (int, error) {
			for _, table := range p.Tables() {
				t := table
				_, err := p.Scan(t, func(r storage.Row) bool {
					sum ^= rowChecksum(t, r) // XOR: commutative, order-free
					rows++
					return true
				})
				if err != nil {
					return 0, err
				}
			}
			return 0, nil
		})
		if err != nil && !errors.Is(err, engine.ErrStopped) {
			return 0, 0, err
		}
	}
	return sum, rows, nil
}

// rowChecksum hashes one row deterministically (FNV-1a over table, key and
// column pairs in sorted order).
func rowChecksum(table string, r storage.Row) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	mix := func(s string) {
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= prime
		}
		h ^= 0xff // field separator
		h *= prime
	}
	mix(table)
	mix(r.Key)
	cols := make([]string, 0, len(r.Cols))
	for k := range r.Cols {
		cols = append(cols, k)
	}
	sort.Strings(cols)
	for _, k := range cols {
		mix(k)
		mix(r.Cols[k])
	}
	return h
}
