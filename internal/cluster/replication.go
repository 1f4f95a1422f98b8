package cluster

// Replication wiring: each partition's command log is wrapped in a
// replication.Feed shipped through one cluster-wide hub to k standby
// replicas hosted on other nodes. A monitor goroutine probes primaries and
// promotes the most caught-up replica when one dies — failover in seconds,
// not a disk replay in minutes — and respawns standbys to restore k.

import (
	"errors"
	"fmt"
	"net"
	"os"
	"sort"
	"time"

	"pstore/internal/durability"
	"pstore/internal/engine"
	"pstore/internal/metrics"
	"pstore/internal/replication"
	"pstore/internal/storage"
)

// replicaHandle pairs a standby replica with its shipping client and the
// node hosting it.
type replicaHandle struct {
	rep  *replication.Replica
	tail *replication.Tail
	node int
}

// HandoffLog is the destination of migration bucket handoff records: the
// partition's replication feed when replication is on (so replicas see the
// ownership change in log order), else its durability manager directly.
type HandoffLog interface {
	LogBucketIn(data *storage.BucketData) error
	LogBucketOut(bucket int) error
}

// HandoffOf returns where the migrator must log the partition's bucket
// handoffs, or nil when the partition has neither feed nor durable log.
func (c *Cluster) HandoffOf(partition int) HandoffLog {
	c.mu.RLock()
	r := c.primaries[partition]
	c.mu.RUnlock()
	switch {
	case r == nil:
		return nil
	case r.feed != nil:
		return r.feed
	case r.mgr != nil:
		return r.mgr
	}
	return nil
}

func (c *Cluster) replicationEnabled() bool { return c.cfg.ReplicationFactor > 0 }

// replOpts is the shipping configuration with the self-fencing quorum wired
// in: unless overridden, a primary arms once all k standbys are live and
// stops acknowledging writes whenever the live set drops below k.
func (c *Cluster) replOpts() replication.Options {
	o := c.cfg.Replication
	if o.RequiredSubscribers == 0 {
		o.RequiredSubscribers = c.cfg.ReplicationFactor
	}
	return o.Normalized()
}

// initReplication creates the hub and shipping state. Called from New
// before any partition starts, so every feed can register as it is
// installed.
func (c *Cluster) initReplication() error {
	c.replicas = make(map[int][]*replicaHandle)
	c.deadNodes = make(map[int]bool)
	c.hub = replication.NewHub(c.replOpts(), c.events)
	if err := c.hub.Listen("127.0.0.1:0"); err != nil {
		return fmt.Errorf("cluster: replication hub: %w", err)
	}
	return nil
}

// snapshot is the consistent-cut provider of the record's feed: the cut
// runs inside the record's own executor, so it can never interleave with
// the feed's appends and the captured LSN is exact.
func (r *primary) snapshot() (*replication.Snapshot, error) {
	var snap *replication.Snapshot
	err := r.exec.Do(func(p *storage.Partition) (int, error) {
		s := &replication.Snapshot{Tables: p.Tables(), LSN: r.feed.LSN(), Epoch: r.feed.Epoch()}
		for _, b := range p.OwnedBuckets() {
			data, err := p.CopyBucket(b)
			if err != nil {
				return 0, err
			}
			s.Buckets = append(s.Buckets, data)
		}
		snap = s
		return 0, nil
	})
	if err != nil {
		return nil, err
	}
	return snap, nil
}

// startReplicationStandbys spawns the initial replicas and the failover
// monitor. Called once from New after routing is published.
func (c *Cluster) startReplicationStandbys() {
	c.mu.Lock()
	for _, pid := range sortedPids(c.primaries) {
		c.spawnReplicasLocked(pid)
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	c.monStop, c.monDone = stop, done
	c.mu.Unlock()
	go c.monitorLoop(stop, done)
}

func (c *Cluster) stopMonitor() {
	c.mu.Lock()
	stop, done := c.monStop, c.monDone
	c.monStop, c.monDone = nil, nil
	c.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
}

// spawnReplicasLocked tops the partition's standby count back up to k,
// placing new replicas on alive nodes that host neither the primary nor an
// existing replica (falling back to any alive node when the cluster is too
// small for strict anti-affinity). Caller holds c.mu.
func (c *Cluster) spawnReplicasLocked(pid int) {
	r := c.primaries[pid]
	if c.stopped || c.respawnPaused || r == nil {
		return
	}
	used := map[int]bool{r.node: true}
	serving := 0
	for _, h := range c.replicas[pid] {
		if h.rep.Serving() {
			serving++
			used[h.node] = true
		}
	}
	var alive []int
	for _, n := range c.nodes {
		if !c.deadNodes[n.ID] {
			alive = append(alive, n.ID)
		}
	}
	if len(alive) == 0 {
		return
	}
	for serving < c.cfg.ReplicationFactor {
		nid := -1
		for i := 0; i < len(alive); i++ {
			cand := alive[(pid+i)%len(alive)]
			if !used[cand] {
				nid = cand
				break
			}
		}
		if nid < 0 {
			nid = alive[(pid+serving)%len(alive)] // anti-affinity impossible; redundancy still counts
		}
		used[nid] = true
		rep := c.newStandbyLocked(pid, nid)
		tail := replication.StartTail(c.hub.Addr(), rep, c.tailConnWrap(pid, nid), c.replOpts(), c.events)
		c.replicas[pid] = append(c.replicas[pid], &replicaHandle{rep: rep, tail: tail, node: nid})
		serving++
	}
}

// newStandbyLocked builds one standby replica for the partition on the given
// node. With durability on it opens the standby's own command log (replaying
// any previous incarnation's fsynced state before wire catch-up) — unless
// that directory is the partition's current durable home, i.e. a previously
// promoted standby's log now owned by the primary. Caller holds c.mu.
func (c *Cluster) newStandbyLocked(pid, nid int) *replication.Replica {
	node := fmt.Sprintf("node-%d", nid)
	if c.cfg.DataDir != "" {
		dir := c.replicaDir(pid, nid)
		if r := c.primaries[pid]; r == nil || dir != r.home {
			rep, err := replication.OpenReplica(pid, c.cfg.NBuckets, node, c.cfg.Registry, dir, c.cfg.Durability, c.replOpts(), c.events)
			if err != nil {
				// A corrupt or half-written directory must not wedge respawn
				// forever: start the standby over from a clean slate.
				os.RemoveAll(dir)
				rep, err = replication.OpenReplica(pid, c.cfg.NBuckets, node, c.cfg.Registry, dir, c.cfg.Durability, c.replOpts(), c.events)
			}
			if err == nil {
				return rep
			}
		}
	}
	return replication.NewReplica(pid, c.cfg.NBuckets, node, c.cfg.Registry, c.replOpts(), c.events)
}

// tailConnWrap wraps a standby's connections on node nid with the directed
// link matrix, nil without one: the remote endpoint is resolved per I/O
// operation, so the wrapped link follows the partition's primary across
// failovers.
func (c *Cluster) tailConnWrap(pid, nid int) func(net.Conn) net.Conn {
	if c.cfg.LinkConnWrap == nil {
		return nil
	}
	remote := func() int {
		c.mu.RLock()
		defer c.mu.RUnlock()
		if r := c.primaries[pid]; r != nil {
			return r.node
		}
		return -1
	}
	return func(conn net.Conn) net.Conn {
		return c.cfg.LinkConnWrap(conn, nid, remote)
	}
}

// SetRespawnPaused suspends (or resumes) the monitor's standby respawning —
// a chaos-test hook for staging double faults: with respawn paused, killing
// the promoted standby's primary leaves disk recovery as the only path.
func (c *Cluster) SetRespawnPaused(v bool) {
	c.mu.Lock()
	c.respawnPaused = v
	c.mu.Unlock()
}

// The failover monitor's probe: one probe of a primary waits
// probeIntervals health intervals (250ms at the default 50ms — far above
// chaos freeze windows, so brief injected freezes never trip a failover),
// and probeStrikes consecutive failed probes depose a hung (but not
// stopped) primary.
const (
	probeIntervals = 5
	probeStrikes   = 3
)

// monitorLoop is the failover monitor: every HealthInterval it probes each
// primary executor (a stopped one fails over immediately; a wedged or
// unreachable one is deposed after probeStrikes consecutive probe failures,
// subject to the quorum vote), sweeps deposed-but-unreachable primaries
// whose links have healed, and respawns standbys for partitions below k.
func (c *Cluster) monitorLoop(stop, done chan struct{}) {
	defer close(done)
	opts := c.replOpts()
	ticker := time.NewTicker(opts.HealthInterval)
	defer ticker.Stop()
	strikes := make(map[int]int)
	for {
		select {
		case <-stop:
			return
		case <-ticker.C:
		}
		c.probePrimaries(stop, strikes, opts)
		c.sweepStalePrimaries()
		c.restoreReplicas()
	}
}

func (c *Cluster) probePrimaries(stop chan struct{}, strikes map[int]int, opts replication.Options) {
	c.mu.RLock()
	if c.stopped {
		c.mu.RUnlock()
		return
	}
	recs := c.primariesLocked()
	c.mu.RUnlock()
	for _, r := range recs {
		select {
		case <-stop:
			return
		default:
		}
		// A blocked monitor↔node link means the probe cannot observe the
		// primary at all — not even to see that it stopped. That is a probe
		// failure, never an immediate failover: the quorum vote decides
		// whether "I can't see it" means "it is gone".
		blocked := c.linkBlocked(MonitorNode, r.node) || c.linkBlocked(r.node, MonitorNode)
		switch {
		case !blocked && r.exec.Stopped():
			delete(strikes, r.pid)
			c.failoverPartition(r)
		case blocked || !r.exec.Healthy(probeIntervals*opts.HealthInterval):
			strikes[r.pid]++
			if strikes[r.pid] >= probeStrikes {
				delete(strikes, r.pid)
				c.failoverPartition(r)
			}
		default:
			delete(strikes, r.pid)
		}
	}
}

// sweepStalePrimaries kills deposed primaries whose links to the monitor
// have healed — the rejoin path for a primary that kept running through its
// own deposition. Its node then hosts a fresh resyncing standby via the
// normal respawn pass.
func (c *Cluster) sweepStalePrimaries() {
	c.mu.Lock()
	var demote []*primary
	keep := c.stale[:0]
	for _, s := range c.stale {
		if !c.linkBlocked(MonitorNode, s.node) && !c.linkBlocked(s.node, MonitorNode) {
			demote = append(demote, s)
		} else {
			keep = append(keep, s)
		}
	}
	c.stale = keep
	c.mu.Unlock()
	for _, s := range demote {
		s.kill(false)
		c.events.Add(metrics.EventReplStaleDemotions, 1)
	}
}

// restoreReplicas prunes dead standbys and spawns replacements so every
// partition converges back to k. Pruned standbys are killed BEFORE the
// respawn pass: a durable replacement on the same node reopens the dead
// incarnation's log directory, which must not still be held open.
func (c *Cluster) restoreReplicas() {
	var doomed []*replicaHandle
	c.mu.Lock()
	if c.stopped {
		c.mu.Unlock()
		return
	}
	pids := sortedPids(c.primaries)
	for _, pid := range pids {
		keep := c.replicas[pid][:0]
		for _, h := range c.replicas[pid] {
			if h.rep.Serving() && !c.deadNodes[h.node] {
				keep = append(keep, h)
			} else {
				doomed = append(doomed, h)
			}
		}
		c.replicas[pid] = keep
	}
	c.mu.Unlock()
	for _, h := range doomed {
		h.rep.Kill()
		go h.tail.Stop()
	}
	c.mu.Lock()
	if !c.stopped {
		for _, pid := range pids {
			c.spawnReplicasLocked(pid)
		}
	}
	c.mu.Unlock()
}

// deposeQuorum is the promotion vote: the monitor may depose a primary only
// with a majority of the partition's cohort — the monitor itself (an
// always-yes witness), the primary's node, and each serving standby's node.
// The primary's node assents only when the monitor's view of it is clean
// both ways (so the failed probes were real observations, not a partition);
// a standby assents only when the monitor can reach it AND it demonstrably
// cannot hear the primary (link blocked either way, or the primary is
// already stopped or fenced). The asymmetric split-brain case — monitor
// blind to a primary that standbys and clients still reach — musters only
// the monitor's own vote and is blocked, which is what guarantees at most
// one primary per epoch can ever commit.
func (c *Cluster) deposeQuorum(primaryNode int, oldExec *engine.Executor, oldFeed *replication.Feed, standbys []*replicaHandle) bool {
	cohort, yes := 1, 1 // the monitor itself
	if primaryNode >= 0 {
		cohort++
		if !c.linkBlocked(MonitorNode, primaryNode) && !c.linkBlocked(primaryNode, MonitorNode) {
			yes++
		}
	}
	primaryDead := oldExec.Stopped() || oldFeed.Unusable() != nil
	for _, h := range standbys {
		cohort++
		reachable := !c.linkBlocked(MonitorNode, h.node) && !c.linkBlocked(h.node, MonitorNode)
		cannotHear := primaryDead ||
			c.linkBlocked(primaryNode, h.node) || c.linkBlocked(h.node, primaryNode)
		if reachable && cannotHear {
			yes++
		}
	}
	return yes*2 > cohort
}

// failoverPartition deposes the partition's primary, old, and promotes its
// most caught-up serving replica: win the quorum vote, pass the coverage
// fence, kill old (or, unreachable, leave it to the stale sweep), raise the
// hub's epoch floor (nothing old holds may ever be acked), lift the
// replica's in-memory partition into a new record at epoch+1 and install it
// — the new epoch and home durably recorded before it serves, its feed
// registered last. The whole path touches no log replay — the replica is
// already at the replicated horizon, which is what makes failover a
// seconds-scale event.
func (c *Cluster) failoverPartition(old *primary) {
	c.failoverMu.Lock()
	defer c.failoverMu.Unlock()

	pid := old.pid
	c.mu.Lock()
	if c.stopped || c.primaries[pid] != old {
		c.mu.Unlock()
		return
	}
	var cohort []*replicaHandle
	for _, h := range c.replicas[pid] {
		if h.rep.Serving() && !c.deadNodes[h.node] {
			cohort = append(cohort, h)
		}
	}
	c.mu.Unlock()
	if old.feed == nil {
		return
	}

	if !c.deposeQuorum(old.node, old.exec, old.feed, cohort) {
		c.events.Add(metrics.EventReplPromotionsBlocked, 1)
		return
	}

	primaryReachable := !c.linkBlocked(MonitorNode, old.node) && !c.linkBlocked(old.node, MonitorNode)

	// Coverage fence. An armed feed never acks past its standbys, so any
	// caught-up standby (or the seeding snapshot for the pre-arm prefix)
	// carries every acked write. A feed that never armed — typical for a
	// freshly promoted primary whose respawned standby hasn't attached yet —
	// acks on local durability alone, and its head may run past everything
	// the standbys hold. Promoting a lagging standby there would silently
	// drop acked writes, so:
	//   - unreachable primary: refuse the failover entirely. The partition
	//     waits out the cut; post-heal the still-subscribed tail catches up
	//     and the stalled pipeline resumes with nothing lost.
	//   - reachable primary, durable cluster: skip standby promotion and
	//     recover from the dead primary's own command log, which holds the
	//     full acked history.
	//   - reachable primary, in-memory cluster: promote the laggard anyway —
	//     with no disk there is nowhere the head could have survived (§11.1).
	forceDisk := false
	if c.replOpts().RequiredSubscribers > 0 && !old.feed.Armed() {
		head := old.feed.LSN()
		covered := false
		c.mu.RLock()
		for _, h := range c.replicas[pid] {
			if h.rep.Serving() && h.rep.Seeded() && !c.deadNodes[h.node] && h.rep.Applied() >= head {
				covered = true
				break
			}
		}
		c.mu.RUnlock()
		if !covered {
			if !primaryReachable {
				c.events.Add(metrics.EventReplPromotionsBlocked, 1)
				return
			}
			if c.cfg.DataDir != "" {
				forceDisk = true
			}
		}
	}

	c.events.Add(metrics.EventReplFailovers, 1)
	if primaryReachable {
		// Wedged, not dead: kill drains it in the background. Its appends
		// hit the fenced feed, so nothing it finishes can be acked or shipped.
		old.kill(false)
	} else {
		// The monitor cannot reach the deposed primary, so it cannot kill it
		// in place (doing so through shared memory would cheat the partition).
		// Hub-side epoch fencing below severs its subscribers, so it loses its
		// ack quorum and self-fences; the sweep kills it after the heal.
		c.mu.Lock()
		c.stale = append(c.stale, old)
		c.mu.Unlock()
	}

	c.mu.Lock()
	var best *replicaHandle
	bestIdx := -1
	for i, h := range c.replicas[pid] {
		// An unseeded standby (spawned but never snapshot-synced) holds
		// nothing and must not be promoted over disk recovery. forceDisk
		// means every standby provably lags the locally-acked head, so the
		// primary's own command log is the only complete copy.
		if forceDisk || !h.rep.Serving() || !h.rep.Seeded() || c.deadNodes[h.node] {
			continue
		}
		if best == nil || h.rep.Applied() > best.rep.Applied() {
			best, bestIdx = h, i
		}
	}
	if best != nil {
		c.replicas[pid] = append(c.replicas[pid][:bestIdx], c.replicas[pid][bestIdx+1:]...)
	}
	c.mu.Unlock()

	if best == nil {
		c.restartFromDisk(old, primaryReachable)
		return
	}

	// Stop the tail before promoting: a record it applied must also be in
	// the standby's log when that log becomes the primary's.
	best.tail.Stop()
	part, applied, repEpoch, rmgr := best.rep.Promote()
	for _, t := range c.cfg.Tables {
		part.CreateTable(t)
	}
	newEpoch := max(old.feed.Epoch(), repEpoch) + 1

	// Raise the hub's fencing floor before the new feed exists: stale ship
	// frames and subscriber streams below newEpoch are refused from here on,
	// even if this promotion is then abandoned by a concurrent Stop.
	c.hub.FencePartition(pid, newEpoch)

	r := &primary{pid: pid, node: best.node, epoch: newEpoch}
	switch {
	case rmgr != nil:
		// The standby's own command log is already fsynced to the replicated
		// horizon; it continues, unbroken, as the promoted primary's log — so
		// a second fault before the next snapshot still recovers every acked
		// write from this same directory.
		rmgr.Flush()
		r.mgr, r.home = rmgr, best.rep.Dir()
	case c.cfg.DataDir != "":
		// Non-durable standby: the old log is fenced history; the promoted
		// state becomes the new durable baseline via a fresh snapshot at the
		// applied LSN.
		os.RemoveAll(c.partitionDir(pid))
		m, err := durability.Open(c.partitionDir(pid), pid, c.cfg.Durability)
		if err == nil {
			m.SetBaseSeq(applied)
			if serr := m.Snapshot(part); serr != nil {
				m.Close()
			} else {
				r.mgr, r.home = m, c.partitionDir(pid)
			}
		}
	}
	if c.install(c.bringUp(r, part, applied), old) {
		c.events.Add(metrics.EventReplPromotions, 1)
	}
}

// restartFromDisk is the slow-path failover when no promotable replica
// exists: recover the partition from its recorded durable home — after a
// promoted durable standby dies, that is the standby's own command log, so
// even the double fault (primary, then its successor before any snapshot)
// loses no acked write. A primary the monitor cannot reach is never
// restarted over: its log may still be live on the far side of the
// partition, so the pid stays down until the sweep demotes it post-heal.
func (c *Cluster) restartFromDisk(old *primary, primaryReachable bool) {
	if c.cfg.DataDir == "" || !primaryReachable {
		return // nothing safe to recover from; the partition stays down
	}
	home := old.home
	if home == "" {
		home = c.partitionDir(old.pid)
	}
	part := c.newPartition(old.pid, nil)
	mgr, err := durability.Open(home, old.pid, c.cfg.Durability)
	if err != nil {
		return
	}
	if _, err := mgr.Recover(part, c.cfg.Registry); err != nil {
		mgr.Close()
		return
	}
	newEpoch := old.feed.Epoch() + 1
	c.hub.FencePartition(old.pid, newEpoch)
	r := &primary{pid: old.pid, node: old.node, mgr: mgr, home: home, epoch: newEpoch}
	if c.install(c.bringUp(r, part, mgr.Seq()), old) {
		c.events.Add(metrics.EventReplPromotions, 1)
	}
}

// movePartitionLocked reassigns the partition to the given node in the
// membership lists. Caller holds c.mu.
func (c *Cluster) movePartitionLocked(pid, toNode int) {
	for _, n := range c.nodes {
		for i, p := range n.Partitions {
			if p == pid {
				if n.ID == toNode {
					return
				}
				n.Partitions = append(n.Partitions[:i], n.Partitions[i+1:]...)
				break
			}
		}
	}
	for _, n := range c.nodes {
		if n.ID == toNode {
			n.Partitions = append(n.Partitions, pid)
			sort.Ints(n.Partitions)
			return
		}
	}
}

// KillNode simulates a node dying without warning (kill -9 scale): every
// replica it hosts stops serving, and every primary it hosts is killed —
// feed fenced first so nothing in flight can be acked, then the log crashes
// and the executor stops. The failover monitor promotes replacements.
func (c *Cluster) KillNode(id int) error {
	c.mu.Lock()
	var node *Node
	for _, n := range c.nodes {
		if n.ID == id {
			node = n
			break
		}
	}
	if node == nil {
		c.mu.Unlock()
		return fmt.Errorf("cluster: no node %d", id)
	}
	if !c.replicationEnabled() {
		c.mu.Unlock()
		return errors.New("cluster: KillNode requires replication (nothing would take over)")
	}
	if c.deadNodes[id] {
		c.mu.Unlock()
		return fmt.Errorf("cluster: node %d already dead", id)
	}
	alive := 0
	for _, n := range c.nodes {
		if !c.deadNodes[n.ID] {
			alive++
		}
	}
	if alive <= 1 {
		c.mu.Unlock()
		return errors.New("cluster: cannot kill the last alive node")
	}
	c.deadNodes[id] = true
	pids := append([]int(nil), node.Partitions...)
	doomed := c.evictReplicasLocked(id)
	c.mu.Unlock()

	for _, h := range doomed {
		h.rep.Kill()
		go h.tail.Stop()
	}
	for _, pid := range pids {
		c.KillPartition(pid)
	}
	return nil
}

// evictReplicasLocked removes every standby hosted on the node from its
// partition's set, walking partitions in pid order, and returns them for
// the caller to kill outside the lock. Caller holds c.mu.
func (c *Cluster) evictReplicasLocked(node int) []*replicaHandle {
	var evicted []*replicaHandle
	for _, pid := range sortedPids(c.replicas) {
		keep := c.replicas[pid][:0]
		for _, h := range c.replicas[pid] {
			if h.node == node {
				evicted = append(evicted, h)
			} else {
				keep = append(keep, h)
			}
		}
		c.replicas[pid] = keep
	}
	return evicted
}

// KillPartition kills one partition's primary in place: fence, crash the
// log, stop the executor. The monitor's next probe triggers the failover.
func (c *Cluster) KillPartition(pid int) {
	c.mu.RLock()
	r := c.primaries[pid]
	c.mu.RUnlock()
	if r != nil {
		r.kill(true)
	}
}

// DeadNodes returns the IDs of killed nodes still in the membership.
func (c *Cluster) DeadNodes() []int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]int, 0, len(c.deadNodes))
	for id := range c.deadNodes {
		out = append(out, id)
	}
	sort.Ints(out)
	return out
}

// pickReplica returns the partition's next replica on a live node, round-
// robin, or nil when none exists. It does not ask the replica whether it
// still serves: the read checks that under the one lock it takes anyway,
// and a replica that stopped serving sends the read to the primary exactly
// as one that stops mid-read always has.
func (c *Cluster) pickReplica(pid int) *replication.Replica {
	c.mu.RLock()
	defer c.mu.RUnlock()
	hs := c.replicas[pid]
	if len(hs) == 0 {
		return nil
	}
	first := int(c.rrSeq.Add(1) % uint64(len(hs)))
	for i := range hs {
		if h := hs[(first+i)%len(hs)]; !c.deadNodes[h.node] {
			return h.rep
		}
	}
	return nil
}

// replicaCannotServe reports whether a replica read's error means "ask the
// primary" (bucket not here yet, writing procedure, stale horizon, replica
// promoted or killed) rather than being the read's own outcome.
func replicaCannotServe(err error) bool {
	return storage.IsNotOwned(err) || errors.Is(err, storage.ErrReadOnly) ||
		errors.Is(err, replication.ErrStaleRead) || errors.Is(err, replication.ErrReplicaGone)
}

// TryReadOnly is CallReadOnly's non-blocking first attempt, for callers that
// must not wait (a connection's read loop runs it inline): it serves the
// read iff a replica whose applied horizon already covers the session can
// answer it right now. ok=false means the read would have to wait — replica
// behind the session, none serving, mid-promotion, primary fallback — and
// nothing was counted: the caller hands it to CallReadOnly off the loop.
func (c *Cluster) TryReadOnly(proc, key string, args map[string]string, session map[int]uint64) (engine.Result, bool) {
	return c.tryReadOnly(time.Now(), proc, key, args, session)
}

func (c *Cluster) tryReadOnly(start time.Time, proc, key string, args map[string]string, session map[int]uint64) (engine.Result, bool) {
	pid := c.route.Load().owner[storage.BucketOf(key, c.cfg.NBuckets)]
	rep := c.pickReplica(pid)
	if rep == nil {
		return engine.Result{}, false
	}
	out, served, err := rep.TrySessionRead(proc, key, args, session[pid])
	if !served || replicaCannotServe(err) {
		return engine.Result{}, false
	}
	c.offered.Add(start, 1)
	return c.finishRead(start, engine.Result{Out: out, Err: err, Partition: pid}), true
}

// finishRead stamps and records a read's end-to-end latency.
func (c *Cluster) finishRead(start time.Time, res engine.Result) engine.Result {
	now := time.Now()
	res.Latency = now.Sub(start)
	c.latencies.Record(now, res.Latency)
	return res
}

// CallReadOnly routes a read-only transaction to a replica of the key's
// partition, enforcing session consistency: a replica serves it only once
// its applied LSN covers the session's last write to that partition. The
// common read is TryReadOnly's single attempt; one that has to wait does so
// here — once, for a replica's horizon — and with no replica available, or
// when the replica read fails (stale horizon, mid-promotion), falls back to
// the primary, which trivially satisfies the session. The fallback is an
// ordinary routed call (the quorum gate skipped: a quorum-degraded primary
// still serves reads), retried under the same budget as every other call.
// Offered load and latency are counted once per read whichever path serves.
func (c *Cluster) CallReadOnly(proc, key string, args map[string]string, session map[int]uint64) engine.Result {
	start := time.Now()
	if res, ok := c.tryReadOnly(start, proc, key, args, session); ok {
		return res
	}
	c.offered.Add(start, 1)
	pid := c.RouteKey(key)
	if rep := c.pickReplica(pid); rep != nil {
		out, err := rep.SessionRead(proc, key, args, session[pid])
		if !replicaCannotServe(err) {
			return c.finishRead(start, engine.Result{Out: out, Err: err, Partition: pid})
		}
		c.events.Add(metrics.EventReplFallbackReads, 1)
	}
	w := engine.AcquireWaiter()
	c.dispatch(&engine.Txn{Proc: proc, Key: key, Args: args}, w, start, true)
	return w.Wait()
}

// WaitReplicasCaughtUp blocks until every serving replica's applied LSN has
// converged with its feed head — the quiesce step before a cluster-wide
// checksum. The workload must be stopped, or the heads keep moving.
func (c *Cluster) WaitReplicasCaughtUp(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		behind := ""
		c.mu.RLock()
		for _, r := range c.primariesLocked() {
			if r.feed == nil {
				continue
			}
			target := r.feed.LSN()
			for _, h := range c.replicas[r.pid] {
				if h.rep.Serving() && !c.deadNodes[h.node] && h.rep.Applied() < target {
					behind = fmt.Sprintf("partition %d replica on node-%d at %d, feed at %d",
						r.pid, h.node, h.rep.Applied(), target)
				}
			}
		}
		c.mu.RUnlock()
		if behind == "" {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("cluster: replicas not caught up after %v: %s", timeout, behind)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// QuiescedChecksum waits for replica horizons to converge, then returns the
// cluster content checksum — the one number chaos tests compare against a
// fault-free oracle run.
func (c *Cluster) QuiescedChecksum(timeout time.Duration) (uint64, int, error) {
	if c.replicationEnabled() {
		if err := c.WaitReplicasCaughtUp(timeout); err != nil {
			return 0, 0, err
		}
	}
	return c.ContentChecksum()
}

// partitionChecksum scans one partition into the cluster's order-free
// row checksum.
func partitionChecksum(p *storage.Partition) (uint64, int, error) {
	var sum uint64
	rows := 0
	for _, table := range p.Tables() {
		t := table
		if _, err := p.Scan(t, func(r storage.Row) bool {
			sum ^= rowChecksum(t, r)
			rows++
			return true
		}); err != nil {
			return 0, 0, err
		}
	}
	return sum, rows, nil
}

// VerifyReplicas proves every caught-up replica holds byte-equivalent
// content to its primary (checksum + row count). Run it quiesced, after
// WaitReplicasCaughtUp.
func (c *Cluster) VerifyReplicas() error {
	type target struct {
		r    *primary
		reps []*replicaHandle
	}
	var targets []target
	c.mu.RLock()
	for _, r := range c.primariesLocked() {
		if r.feed == nil {
			continue
		}
		t := target{r: r}
		for _, h := range c.replicas[r.pid] {
			if h.rep.Serving() && !c.deadNodes[h.node] {
				t.reps = append(t.reps, h)
			}
		}
		targets = append(targets, t)
	}
	c.mu.RUnlock()

	for _, t := range targets {
		if len(t.reps) == 0 {
			continue
		}
		pid := t.r.pid
		head := t.r.feed.LSN()
		var psum uint64
		var prows int
		err := t.r.exec.Do(func(p *storage.Partition) (int, error) {
			var perr error
			psum, prows, perr = partitionChecksum(p)
			return 0, perr
		})
		if errors.Is(err, engine.ErrStopped) {
			continue // mid-failover; the next quiesce pass will see the new primary
		}
		if err != nil {
			return err
		}
		for _, h := range t.reps {
			if got := h.rep.Applied(); got != head {
				return fmt.Errorf("cluster: partition %d replica on node-%d at LSN %d, feed at %d", pid, h.node, got, head)
			}
			var rsum uint64
			var rrows int
			var rerr error
			h.rep.Inspect(func(p *storage.Partition) {
				rsum, rrows, rerr = partitionChecksum(p)
			})
			if rerr != nil {
				return rerr
			}
			if rsum != psum || rrows != prows {
				return fmt.Errorf("cluster: partition %d replica on node-%d diverged: %d rows sum %x, primary %d rows sum %x",
					pid, h.node, rrows, rsum, prows, psum)
			}
		}
	}
	return nil
}

// ReplicationStats is a point-in-time summary of the shipping subsystem.
type ReplicationStats struct {
	Factor            int    // configured k
	Replicas          int    // serving standbys across all partitions
	MaxLagRecords     uint64 // worst feed-head minus replica-applied gap
	Records           int64  // records shipped
	Failovers         int64
	Promotions        int64
	Resyncs           int64
	StaleWaits        int64 // session reads that had to wait for the horizon
	ReplicaReads      int64
	FallbackReads     int64
	FencedWrites      int64 // appends refused by a fenced/closed feed
	QuorumLosses      int64 // armed primaries that dropped below quorum
	QuorumLostWrites  int64 // writes shed pre-execution during quorum loss
	PromotionsBlocked int64 // failover attempts the quorum vote refused
	StaleDemotions    int64 // deposed primaries demoted in place after heal
}

// ReplicationStats reports the current shipping state and counters.
func (c *Cluster) ReplicationStats() ReplicationStats {
	s := ReplicationStats{
		Factor:            c.cfg.ReplicationFactor,
		Records:           c.events.Get(metrics.EventReplRecords),
		Failovers:         c.events.Get(metrics.EventReplFailovers),
		Promotions:        c.events.Get(metrics.EventReplPromotions),
		Resyncs:           c.events.Get(metrics.EventReplResyncs),
		StaleWaits:        c.events.Get(metrics.EventReplStaleWaits),
		ReplicaReads:      c.events.Get(metrics.EventReplicaReads),
		FallbackReads:     c.events.Get(metrics.EventReplFallbackReads),
		FencedWrites:      c.events.Get(metrics.EventReplFencedWrites),
		QuorumLosses:      c.events.Get(metrics.EventReplQuorumLost),
		QuorumLostWrites:  c.events.Get(metrics.EventReplQuorumLostWrites),
		PromotionsBlocked: c.events.Get(metrics.EventReplPromotionsBlocked),
		StaleDemotions:    c.events.Get(metrics.EventReplStaleDemotions),
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	for pid, r := range c.primaries {
		if r.feed == nil {
			continue
		}
		head := r.feed.LSN()
		for _, h := range c.replicas[pid] {
			if !h.rep.Serving() || c.deadNodes[h.node] {
				continue
			}
			s.Replicas++
			if lag := lagRecords(head, h.rep.Applied()); lag > s.MaxLagRecords {
				s.MaxLagRecords = lag
			}
		}
	}
	return s
}

// lagRecords is how far a replica's applied LSN trails a feed head read
// earlier. The two reads are not synchronized: a replica that applied past
// the stale head is caught up, not 2⁶⁴ records behind.
func lagRecords(head, applied uint64) uint64 {
	if applied >= head {
		return 0
	}
	return head - applied
}
