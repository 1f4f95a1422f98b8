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
	"maps"
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
	// bucket is in flight during a migration. Defaults to 200µs. A
	// transaction retries for at most retryBudget, and at most
	// retryBudget / RetryInterval times.
	RetryInterval time.Duration
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

	// retryAttempts, when positive, caps routing attempts below the
	// retryBudget / RetryInterval the cap otherwise derives from; in-package
	// tests set it.
	retryAttempts int
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

// retryBudget bounds how long a transaction keeps retrying before giving
// up.
const retryBudget = 10 * time.Second

// attemptCap is how many times a transaction is requeued while its bucket
// is in flight, independent of retryBudget, so the in-between window of a
// bucket move can never spin unboundedly even with a tiny RetryInterval.
func (c Config) attemptCap() int {
	if c.retryAttempts > 0 {
		return c.retryAttempts
	}
	return max(1, int(retryBudget/c.retryInterval()))
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
	// table plus partition→record map, swapped atomically whenever the
	// topology or ownership changes. Transaction routing reads it with one
	// atomic load — no lock — so reconfigurations never stall the request
	// path, and the request path never stalls reconfigurations.
	route atomic.Pointer[routing]

	mu        sync.RWMutex
	nodes     []*Node          // sorted by ID
	primaries map[int]*primary // partition → serving record (master copy)
	owner     []int            // bucket → partition (master copy)
	nextNode  int
	nextPart  int
	stopped   bool
	recovered bool

	snapStop chan struct{} // stops the periodic snapshot loop
	snapDone chan struct{}

	// Replication state (nil when ReplicationFactor == 0); the methods live
	// in replication.go. replicas and deadNodes are guarded by c.mu;
	// failoverMu serializes failovers so two probes of the same dead
	// primary cannot promote twice.
	hub        *replication.Hub
	replicas   map[int][]*replicaHandle
	deadNodes  map[int]bool
	rrSeq      atomic.Uint64 // replica read round-robin cursor
	monStop    chan struct{}
	monDone    chan struct{}
	failoverMu sync.Mutex

	// stale holds deposed-but-unreachable primaries: the quorum vote deposed
	// them while a partition hid them from the monitor, so they could not be
	// killed in place. The monitor sweeps them once the links heal; hub-side
	// epoch fencing keeps them harmless in between.
	stale []*primary
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
		primaries:  make(map[int]*primary),
		owner:      make([]int, cfg.NBuckets),
		latencies:  metrics.NewShardedRecorder(window),
		offered:    metrics.NewCounter(time.Second),
		allocLog:   metrics.NewAllocationTracker(time.Now(), cfg.InitialNodes),
		events:     metrics.NewEvents(),
		moveStalls: metrics.NewDurationHist(),
	}
	if err := c.open(); err != nil {
		// Nothing has served yet: whatever did start goes down as in a crash,
		// so a refused New leaves no executor, log or listener behind.
		c.Crash()
		return nil, err
	}
	c.startSnapshotLoop()
	if c.replicationEnabled() {
		c.startReplicationStandbys()
	}
	return c, nil
}

// open brings up the replication hub and every partition: recovered when
// DataDir holds a manifest, else fresh, with buckets dealt round-robin
// across the initial partitions.
func (c *Cluster) open() error {
	cfg := c.cfg
	if cfg.ReplicationFactor > 0 {
		if err := c.initReplication(); err != nil {
			return err
		}
	}
	if cfg.DataDir != "" {
		if err := os.MkdirAll(cfg.DataDir, 0o755); err != nil {
			return fmt.Errorf("cluster: data dir: %w", err)
		}
		if _, err := os.Stat(c.manifestPath()); err == nil {
			return c.recover()
		} else if !errors.Is(err, os.ErrNotExist) {
			return err
		}
	}
	p := cfg.PartitionsPerNode
	ownedBy := make([][]int, cfg.InitialNodes*p)
	for b := 0; b < cfg.NBuckets; b++ {
		pid := b % len(ownedBy)
		ownedBy[pid] = append(ownedBy[pid], b)
		c.owner[b] = pid
	}
	for n := 0; n < cfg.InitialNodes; n++ {
		if _, err := c.addNodeLocked(ownedBy[n*p : (n+1)*p]); err != nil {
			return err
		}
	}
	return nil
}

// routing is one immutable snapshot of the request-routing state.
type routing struct {
	owner     []int            // bucket → partition
	primaries map[int]*primary // partition → serving record
}

// publishRoutingLocked rebuilds and swaps the routing snapshot from the
// master copies. Caller holds c.mu (or owns c exclusively during New), so
// writers are serialized; readers are never blocked.
func (c *Cluster) publishRoutingLocked() {
	c.route.Store(&routing{
		owner:     append([]int(nil), c.owner...),
		primaries: maps.Clone(c.primaries),
	})
}

// linkBlocked consults the configured partition matrix; with no matrix, no
// link is ever blocked.
func (c *Cluster) linkBlocked(from, to int) bool {
	return c.cfg.Links != nil && c.cfg.Links.Blocked(from, to)
}

// primary is one serving incarnation of a partition: the executor that
// owns its data, the replication feed (nil without replication) and the
// durability manager (nil without durability) it logs through, its durable
// home ("" without durability), its replication epoch and the node hosting
// it. A record never changes once published — a failover or a restart
// installs a new one — so whoever holds one sees a consistent set. Every
// record is built by bringUp and ends in close or kill.
type primary struct {
	pid   int
	node  int
	exec  *engine.Executor
	feed  *replication.Feed
	mgr   *durability.Manager
	home  string
	epoch uint64
}

// bringUp completes r — pid, node and, when durable, manager and home
// already set — into a serving record over part. With replication the feed
// comes first: at r.epoch, continuing after LSN start, chained to the
// manager, cutting its snapshots through r's own executor. Then the
// executor, logging to the feed or else the manager. r serves only once
// installed.
func (c *Cluster) bringUp(r *primary, part *storage.Partition, start uint64) *primary {
	ecfg := c.cfg.Engine
	if r.mgr != nil {
		ecfg.Log = r.mgr
	}
	if c.replicationEnabled() {
		r.feed = replication.NewFeed(r.pid, r.mgr, r.epoch, start, c.replOpts(), c.events)
		r.feed.SetSnapshotFunc(r.snapshot)
		r.epoch = r.feed.Epoch()
		ecfg.Log = r.feed
	}
	r.exec = engine.NewExecutor(part, c.cfg.Registry, ecfg)
	return r
}

// installLocked makes fresh records their partitions' serving
// incarnations: stored, written to the manifest when durable (each
// record's home and epoch are on disk before it is routable), published to
// routing and, last, each feed registered with the hub. Caller holds c.mu
// or owns c exclusively.
func (c *Cluster) installLocked(recs ...*primary) error {
	for _, r := range recs {
		c.primaries[r.pid] = r
	}
	var err error
	if c.cfg.DataDir != "" {
		err = c.writeManifestLocked()
	}
	c.publishRoutingLocked()
	for _, r := range recs {
		if r.feed == nil {
			continue
		}
		if rerr := c.hub.Register(r.pid, r.feed); rerr != nil {
			// Registration is refused only below the hub's fencing floor, and
			// no install fences above its own epoch — a refusal is a
			// programming error, surfaced loudly.
			panic(fmt.Sprintf("cluster: registering partition %d feed: %v", r.pid, rerr))
		}
	}
	return err
}

// install makes r, freshly brought up, the partition's serving record in
// place of prev: under c.mu, unless the cluster is stopping or prev was
// already replaced, the partition moves to r's node and installLocked
// publishes r. A refused r never served; it is closed, and install reports
// false.
func (c *Cluster) install(r, prev *primary) bool {
	c.mu.Lock()
	if c.stopped || c.primaries[r.pid] != prev {
		c.mu.Unlock()
		r.close()
		return false
	}
	c.movePartitionLocked(r.pid, r.node)
	// A failed manifest write leaves the previous layout on disk; serving
	// the new record beats leaving the partition down.
	_ = c.installLocked(r)
	c.mu.Unlock()
	return true
}

// close is the graceful teardown: the executor drains and stops, then the
// logs close.
func (r *primary) close() {
	r.exec.Stop()
	r.closeLogs(false)
}

// closeLogs shuts the record's logs once its executor has stopped: the
// manager flushes and closes — or, for a crash, abandons its un-fsynced
// buffer — and then the feed closes.
func (r *primary) closeLogs(crash bool) {
	switch {
	case r.mgr == nil:
	case crash:
		r.mgr.Crash()
	default:
		r.mgr.Close()
	}
	if r.feed != nil {
		r.feed.Close()
	}
}

// kill is the fail-stop teardown of a killed or deposed primary: fence the
// feed so nothing the executor still finishes can be acked or shipped,
// crash (not close) the log, then stop the executor — in the background
// unless wait, so the failover monitor never waits on a wedged one.
func (r *primary) kill(wait bool) {
	if r.feed != nil {
		r.feed.Fence()
	}
	if r.mgr != nil {
		r.mgr.Crash()
	}
	if wait {
		r.exec.Stop()
	} else if !r.exec.Stopped() {
		go r.exec.Stop()
	}
}

// newPartition builds an empty partition holding every configured table and
// owning the given buckets.
func (c *Cluster) newPartition(pid int, buckets []int) *storage.Partition {
	part := storage.NewPartition(pid, c.cfg.NBuckets, buckets)
	for _, t := range c.cfg.Tables {
		part.CreateTable(t)
	}
	return part
}

// openPartition prepares a brand-new partition on the node, owning the
// given buckets, and its record. With durability its log opens and an
// initial snapshot makes the bucket ownership durable from the first
// moment. No executor runs yet; bringUp starts it.
func (c *Cluster) openPartition(pid, node int, buckets []int) (*primary, *storage.Partition, error) {
	part := c.newPartition(pid, buckets)
	r := &primary{pid: pid, node: node}
	if c.cfg.DataDir != "" {
		dir := c.partitionDir(pid)
		mgr, err := durability.Open(dir, pid, c.cfg.Durability)
		if err != nil {
			return nil, nil, fmt.Errorf("cluster: partition %d durability: %w", pid, err)
		}
		if err := mgr.Snapshot(part); err != nil {
			mgr.Close()
			return nil, nil, fmt.Errorf("cluster: partition %d initial snapshot: %w", pid, err)
		}
		r.mgr, r.home = mgr, dir
	}
	return r, part, nil
}

// addNodeLocked provisions a node with one fresh partition per entry of
// owned (the buckets that partition starts with), appends it to the
// membership and installs its records. Every partition is opened before any
// executor starts: if one fails, the logs already open close again and the
// node and partition IDs stay unused. Caller holds c.mu or owns c
// exclusively.
func (c *Cluster) addNodeLocked(owned [][]int) (*Node, error) {
	node := &Node{ID: c.nextNode}
	recs := make([]*primary, len(owned))
	parts := make([]*storage.Partition, len(owned))
	for i, buckets := range owned {
		r, part, err := c.openPartition(c.nextPart+i, node.ID, buckets)
		if err != nil {
			for _, r := range recs[:i] {
				r.closeLogs(false)
			}
			return nil, err
		}
		recs[i], parts[i] = r, part
	}
	for i, r := range recs {
		var start uint64
		if r.mgr != nil {
			start = r.mgr.Seq()
		}
		c.bringUp(r, parts[i], start)
		node.Partitions = append(node.Partitions, r.pid)
	}
	c.nextNode++
	c.nextPart += len(owned)
	c.nodes = append(c.nodes, node)
	return node, c.installLocked(recs...)
}

// primariesLocked returns the serving records in pid order, the order every
// sweep walks partitions in. Caller holds c.mu.
func (c *Cluster) primariesLocked() []*primary {
	recs := make([]*primary, 0, len(c.primaries))
	for _, pid := range sortedPids(c.primaries) {
		recs = append(recs, c.primaries[pid])
	}
	return recs
}

// sortedPids returns a partition-keyed map's keys in ascending order.
func sortedPids[V any](m map[int]V) []int {
	pids := make([]int, 0, len(m))
	for pid := range m {
		pids = append(pids, pid)
	}
	sort.Ints(pids)
	return pids
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

// writeManifestLocked persists the node/partition layout and each record's
// home and epoch (atomic rename). Caller holds c.mu or owns c exclusively.
func (c *Cluster) writeManifestLocked() error {
	m := manifest{
		NBuckets:          c.cfg.NBuckets,
		PartitionsPerNode: c.cfg.PartitionsPerNode,
		NextNode:          c.nextNode,
		NextPart:          c.nextPart,
		Homes:             make(map[string]string),
		Epochs:            make(map[string]uint64),
	}
	for _, n := range c.nodes {
		m.Nodes = append(m.Nodes, manifestNode{ID: n.ID, Partitions: append([]int(nil), n.Partitions...)})
	}
	for pid, r := range c.primaries {
		if r.home != "" {
			m.Homes[strconv.Itoa(pid)] = r.home
		}
		if r.epoch > 0 {
			m.Epochs[strconv.Itoa(pid)] = r.epoch
		}
	}
	raw, err := json.MarshalIndent(&m, "", "  ")
	if err != nil {
		return err
	}
	return durability.ReplaceFile(c.manifestPath(), raw)
}

// decodeManifest parses a manifest and refuses one recovery cannot trust,
// before any log is opened: no partition at all; a node ID that is
// negative, repeated or not below NextNode; a partition that is negative,
// listed twice or not below NextPart (AddNode would reuse its pid); a
// Homes or Epochs key that is not a partition ID; and a durable home that
// is not directly under dataDir, or that two partitions share (RemoveNode
// deletes a retired partition's home). It returns the manifest and, in pid
// order, one record stub per partition holding its node and its recorded
// home and epoch.
func decodeManifest(raw []byte, dataDir string) (*manifest, []*primary, error) {
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, nil, fmt.Errorf("cluster: manifest: %w", err)
	}
	root, err := filepath.Abs(dataDir)
	if err != nil {
		return nil, nil, fmt.Errorf("cluster: data dir: %w", err)
	}
	byPid := make(map[int]*primary)
	seen := make(map[int]bool, len(m.Nodes))
	for _, n := range m.Nodes {
		if n.ID < 0 || n.ID >= m.NextNode || seen[n.ID] {
			return nil, nil, fmt.Errorf("cluster: manifest node %d is repeated or outside [0, %d)", n.ID, m.NextNode)
		}
		seen[n.ID] = true
		for _, pid := range n.Partitions {
			if pid < 0 || pid >= m.NextPart || byPid[pid] != nil {
				return nil, nil, fmt.Errorf("cluster: manifest partition %d is repeated or outside [0, %d)", pid, m.NextPart)
			}
			byPid[pid] = &primary{pid: pid, node: n.ID}
		}
	}
	if len(byPid) == 0 {
		return nil, nil, errors.New("cluster: manifest lists no partitions")
	}
	owners := make(map[string]int, len(m.Homes))
	for k, dir := range m.Homes {
		pid, err := strconv.Atoi(k)
		if err != nil {
			return nil, nil, fmt.Errorf("cluster: manifest home key %q: %w", k, err)
		}
		abs, err := filepath.Abs(dir)
		if err != nil || filepath.Dir(abs) != root {
			return nil, nil, fmt.Errorf("cluster: manifest home %q of partition %d is not directly under %s", dir, pid, dataDir)
		}
		if other, dup := owners[abs]; dup {
			return nil, nil, fmt.Errorf("cluster: manifest home %q shared by partitions %d and %d", dir, other, pid)
		}
		owners[abs] = pid
		if r := byPid[pid]; r != nil {
			r.home = dir
		}
	}
	for k, e := range m.Epochs {
		pid, err := strconv.Atoi(k)
		if err != nil {
			return nil, nil, fmt.Errorf("cluster: manifest epoch key %q: %w", k, err)
		}
		if r := byPid[pid]; r != nil {
			r.epoch = e
		}
	}
	recs := make([]*primary, 0, len(byPid))
	for _, pid := range sortedPids(byPid) {
		recs = append(recs, byPid[pid])
	}
	return &m, recs, nil
}

// recover rebuilds the cluster from DataDir: the manifest, validated first,
// gives the node/partition layout and each partition's home and epoch,
// every partition replays its snapshot + log tail, and the routing table is
// rebuilt from the recovered bucket ownership.
func (c *Cluster) recover() error {
	raw, err := os.ReadFile(c.manifestPath())
	if err != nil {
		return err
	}
	m, recs, err := decodeManifest(raw, c.cfg.DataDir)
	if err != nil {
		return err
	}
	if m.NBuckets != c.cfg.NBuckets {
		return fmt.Errorf("cluster: data dir has %d buckets, config wants %d", m.NBuckets, c.cfg.NBuckets)
	}
	if m.PartitionsPerNode != c.cfg.PartitionsPerNode {
		return fmt.Errorf("cluster: data dir has %d partitions/node, config wants %d",
			m.PartitionsPerNode, c.cfg.PartitionsPerNode)
	}
	parts, err := c.replayPartitions(recs)
	if err != nil {
		return err
	}
	c.nextNode, c.nextPart = m.NextNode, m.NextPart
	c.recovered = true
	for _, mn := range m.Nodes {
		c.nodes = append(c.nodes, &Node{ID: mn.ID, Partitions: append([]int(nil), mn.Partitions...)})
	}
	sort.Slice(c.nodes, func(i, j int) bool { return c.nodes[i].ID < c.nodes[j].ID })
	for _, r := range recs {
		c.bringUp(r, parts[r.pid], r.mgr.Seq())
	}
	if err := c.installLocked(recs...); err != nil {
		return err
	}
	c.allocLog.Set(time.Now(), len(c.nodes))
	return nil
}

// replayPartitions opens each record's log at its durable home, replays it
// into a fresh partition, and resolves bucket ownership into c.owner. A
// crash between a bucket's durable arrival at the receiver and the sender's
// durable handoff record leaves both partitions claiming it; the receiver
// (whose claim comes from a bucket-in record) wins, since post-handoff
// transactions were logged there. A bucket nobody claims is re-adopted
// empty, round-robin. On error every log it opened is closed again.
func (c *Cluster) replayPartitions(recs []*primary) (parts map[int]*storage.Partition, err error) {
	defer func() {
		if err != nil {
			for _, r := range recs {
				if r.mgr != nil {
					r.mgr.Close()
				}
			}
		}
	}()
	parts = make(map[int]*storage.Partition, len(recs))
	stats := make(map[int]durability.ReplayStats, len(recs))
	for _, r := range recs {
		if r.home == "" {
			r.home = c.partitionDir(r.pid)
		}
		parts[r.pid] = c.newPartition(r.pid, nil)
		if r.mgr, err = durability.Open(r.home, r.pid, c.cfg.Durability); err != nil {
			return nil, fmt.Errorf("cluster: partition %d durability: %w", r.pid, err)
		}
		if stats[r.pid], err = r.mgr.Recover(parts[r.pid], c.cfg.Registry); err != nil {
			return nil, fmt.Errorf("cluster: recovering partition %d: %w", r.pid, err)
		}
	}

	claim := make([]int, c.cfg.NBuckets)
	for i := range claim {
		claim[i] = -1
	}
	dirty := make(map[int]bool) // partitions whose state changed during resolution
	for _, r := range recs {
		for _, b := range parts[r.pid].OwnedBuckets() {
			prev := claim[b]
			if prev < 0 {
				claim[b] = r.pid
				continue
			}
			// Conflict: prefer the handoff receiver.
			loser, winner := r.pid, prev
			if stats[r.pid].FromHandoff[b] && !stats[prev].FromHandoff[b] {
				loser, winner = prev, r.pid
			}
			claim[b] = winner
			if err := parts[loser].DropBucket(b); err != nil {
				return nil, fmt.Errorf("cluster: resolving bucket %d ownership: %w", b, err)
			}
			dirty[loser] = true
		}
	}
	for b, pid := range claim {
		if pid < 0 {
			pid = recs[b%len(recs)].pid
			if err := parts[pid].ApplyBucket(&storage.BucketData{Bucket: b, Tables: map[string][]storage.Row{}}); err != nil {
				return nil, fmt.Errorf("cluster: re-adopting lost bucket %d: %w", b, err)
			}
			dirty[pid] = true
		}
		c.owner[b] = pid
	}
	for _, r := range recs {
		if !dirty[r.pid] {
			continue
		}
		if err := r.mgr.Snapshot(parts[r.pid]); err != nil {
			return nil, fmt.Errorf("cluster: snapshotting resolved partition %d: %w", r.pid, err)
		}
	}
	return parts, nil
}

// Recovered reports whether New restored existing state from DataDir
// (callers use it to skip re-preloading data).
func (c *Cluster) Recovered() bool { return c.recovered }

// DurabilityOf returns the partition's durability manager, or nil when
// durability is disabled (or the partition is gone).
func (c *Cluster) DurabilityOf(partition int) *durability.Manager {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if r := c.primaries[partition]; r != nil {
		return r.mgr
	}
	return nil
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

// SnapshotAll snapshots every durable partition (through its executor, so
// each snapshot is consistent) and truncates its log. It walks partitions
// in pid order: the manifest written per snapshot round is compared across
// runs. Partitions that stop mid-iteration are skipped.
func (c *Cluster) SnapshotAll() error {
	c.mu.RLock()
	recs := c.primariesLocked()
	c.mu.RUnlock()
	var firstErr error
	for _, r := range recs {
		if r.mgr == nil {
			continue
		}
		err := r.exec.Do(func(p *storage.Partition) (int, error) {
			return 0, r.mgr.Snapshot(p)
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
func (c *Cluster) Stop() { c.shutdown(false) }

// Crash is a test hook simulating the whole process dying: executors stop
// without final snapshots, and each log abandons its un-fsynced buffer.
// Acknowledged transactions survive (group commit fsynced them before the
// ack); in-flight ones may not — exactly a real crash's contract.
func (c *Cluster) Crash() { c.shutdown(true) }

// shutdown is Stop and Crash, which differ only in the final snapshot and in
// whether the logs close or crash. Partitions go down in pid order, and no
// executor is stopped under c.mu.
func (c *Cluster) shutdown(crash bool) {
	c.stopSnapshotLoop()
	c.stopMonitor()
	c.mu.Lock()
	if c.stopped {
		c.mu.Unlock()
		return
	}
	c.stopped = true
	c.mu.Unlock()
	if !crash && c.cfg.DataDir != "" {
		c.SnapshotAll()
	}
	c.mu.Lock()
	recs := c.primariesLocked()
	var handles []*replicaHandle
	for _, pid := range sortedPids(c.replicas) {
		handles = append(handles, c.replicas[pid]...)
	}
	stale := c.stale
	c.stale = nil
	c.mu.Unlock()
	for _, r := range recs {
		r.exec.Stop()
	}
	for _, r := range recs {
		r.closeLogs(crash)
	}
	for _, h := range handles {
		h.rep.Kill()
		h.tail.Stop()
	}
	for _, s := range stale {
		s.kill(false)
	}
	if c.hub != nil {
		c.hub.Close()
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
	// A scale-out node must be fully durable (empty snapshot + open log)
	// before any bucket migrates onto it; failures here are programming or
	// I/O errors surfaced loudly.
	node, err := c.addNodeLocked(make([][]int, c.cfg.PartitionsPerNode))
	if err != nil {
		panic(fmt.Sprintf("cluster: AddNode: %v", err))
	}
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
	var doomed []*primary
	var doomedReps []*replicaHandle
	for _, pid := range node.Partitions {
		r := c.primaries[pid]
		delete(c.primaries, pid)
		if r.feed != nil {
			c.hub.Deregister(pid)
		}
		doomed = append(doomed, r)
		doomedReps = append(doomedReps, c.replicas[pid]...)
		delete(c.replicas, pid)
	}
	// Standbys of other partitions hosted here lose their home too.
	doomedReps = append(doomedReps, c.evictReplicasLocked(id)...)
	delete(c.deadNodes, id)
	c.nodes = append(c.nodes[:idx], c.nodes[idx+1:]...)
	var err error
	if c.cfg.DataDir != "" {
		err = c.writeManifestLocked()
	}
	c.publishRoutingLocked()
	c.allocLog.Set(time.Now(), len(c.nodes))
	c.mu.Unlock()
	for _, r := range doomed {
		r.close()
		// The partitions own nothing: once the manifest no longer lists them,
		// their durable state is obsolete.
		if r.mgr != nil && err == nil {
			if rerr := os.RemoveAll(r.home); rerr != nil {
				err = fmt.Errorf("cluster: removing partition %d data: %w", r.pid, rerr)
			}
		}
	}
	for _, h := range doomedReps {
		h.rep.Kill()
		h.tail.Stop()
	}
	return err
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
	r := c.route.Load().primaries[partition]
	if r == nil {
		return nil, false
	}
	return r.exec, true
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
// quorum — is retried, bounded both in time (retryBudget) and in attempts
// (attemptCap), and every retry is counted in Events as a migration
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
// covers the ownership, one lookup the owner's record — and dispatches it.
// The call must not be touched afterwards: Complete may already have
// recycled it.
func (a *call) attempt() {
	a.attempts++
	rt := a.c.route.Load()
	pid := rt.owner[a.bucket]
	r := rt.primaries[pid]
	if r == nil {
		a.Complete(engine.Result{Err: fmt.Errorf("%w %d", errNoExecutor, pid)})
		return
	}
	if !a.readOnly {
		if err := a.c.quorumGate(r); err != nil {
			a.Complete(engine.Result{Err: err, Partition: pid})
			return
		}
	}
	r.exec.CallAsync(a.txn, a)
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
	} else if retriable(res.Err) && a.attempts < c.cfg.attemptCap() &&
		time.Since(a.start) <= retryBudget {
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
func (c *Cluster) quorumGate(r *primary) error {
	if r.feed == nil {
		return nil
	}
	err := r.feed.Available()
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
	bucket := storage.BucketOf(key, c.cfg.NBuckets)
	for attempt := 0; attempt < 64; attempt++ {
		rt := c.route.Load()
		pid := rt.owner[bucket]
		r := rt.primaries[pid]
		if r == nil {
			return fmt.Errorf("%w %d", errNoExecutor, pid)
		}
		err := r.exec.Do(func(p *storage.Partition) (int, error) {
			if perr := p.Put(table, key, cols); perr != nil {
				return 0, perr
			}
			if r.feed != nil {
				return 0, r.feed.LogPut(table, key, cols)
			}
			return 0, nil
		})
		if !retriable(err) {
			return err
		}
		time.Sleep(c.cfg.retryInterval())
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
	recs := c.primariesLocked()
	out := make([]*engine.Executor, len(recs))
	for i, r := range recs {
		out[i] = r.exec
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
	hint := time.Duration(c.cfg.Engine.QueueCapacity()) * c.cfg.Engine.ServiceTime / 2
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
			psum, prows, err := partitionChecksum(p)
			sum ^= psum // XOR: commutative, order-free
			rows += prows
			return 0, err
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
