package cluster

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"pstore/internal/engine"
	"pstore/internal/faultinject"
	"pstore/internal/replication"
	"pstore/internal/storage"
)

// chaosSeed returns the schedule seed, overridable via PSTORE_CHAOS_SEED so
// CI can sweep seeds without editing tests.
func chaosSeed(t *testing.T) int64 {
	t.Helper()
	v := os.Getenv("PSTORE_CHAOS_SEED")
	if v == "" {
		return 1
	}
	n, err := strconv.ParseInt(v, 10, 64)
	if err != nil {
		t.Fatalf("bad PSTORE_CHAOS_SEED %q: %v", v, err)
	}
	return n
}

// fastReplOpts are failover timings scaled for tests: probes every 10ms
// (each waiting 50ms), subscriber ack timeout 200ms.
func fastReplOpts(t *testing.T) replication.Options {
	return replication.Options{
		Seed:           chaosSeed(t),
		HealthInterval: 10 * time.Millisecond,
		AckTimeout:     200 * time.Millisecond,
	}
}

// splitBrainConfig wires a partition matrix into a k=1 replicated cluster:
// the monitor's probes and vote consult the matrix, and every replication
// tail's connection is gated on the standby↔primary link.
func splitBrainConfig(t *testing.T) (Config, *faultinject.Matrix) {
	t.Helper()
	cfg := replConfig(1)
	cfg.Replication = fastReplOpts(t)
	m := faultinject.NewMatrix()
	cfg.Links = m
	cfg.LinkConnWrap = m.WrapConn
	return cfg, m
}

func mustPut(t *testing.T, c *Cluster, key string) int {
	t.Helper()
	res := c.Call(&engine.Txn{Proc: "Put", Key: key, Args: map[string]string{"v": key}})
	if res.Err != nil {
		t.Fatalf("put %s: %v", key, res.Err)
	}
	return res.Partition
}

func mustGet(t *testing.T, c *Cluster, key, want string) {
	t.Helper()
	res := c.Call(&engine.Txn{Proc: "Get", Key: key})
	if res.Err != nil {
		t.Fatalf("get %s: %v", key, res.Err)
	}
	if res.Out["v"] != want {
		t.Fatalf("get %s = %q, want %q: acked write lost", key, res.Out["v"], want)
	}
}

func waitStat(t *testing.T, c *Cluster, what string, timeout time.Duration, get func(ReplicationStats) int64, min int64) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for get(c.ReplicationStats()) < min {
		if time.Now().After(deadline) {
			t.Fatalf("%s never reached %d (stats %+v)", what, min, c.ReplicationStats())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestSplitBrainMonitorBlindPromotionBlocked is the asymmetric split-brain:
// the monitor loses sight of a node whose primaries are perfectly healthy —
// standbys still hear them, clients still commit. The quorum vote must
// refuse the depose (only the monitor's own vote says "gone"), because
// promoting here would mint a second live primary for the same data.
func TestSplitBrainMonitorBlindPromotionBlocked(t *testing.T) {
	cfg, m := splitBrainConfig(t)
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	for i := 0; i < 100; i++ {
		mustPut(t, c, fmt.Sprintf("mb%d", i))
	}
	waitQuiesced(t, c)

	victim := c.Nodes()[0].ID
	m.BlockPair(MonitorNode, victim)

	// The monitor strikes out and calls the vote; the vote must block it.
	waitStat(t, c, "blocked promotions", 10*time.Second,
		func(s ReplicationStats) int64 { return s.PromotionsBlocked }, 1)

	// The blind spot costs nothing: the primaries keep committing with
	// their full ack quorum while the monitor is locked out.
	for i := 100; i < 150; i++ {
		mustPut(t, c, fmt.Sprintf("mb%d", i))
	}
	if s := c.ReplicationStats(); s.Failovers != 0 || s.Promotions != 0 {
		t.Fatalf("monitor-blind partition caused a failover: %+v", s)
	}

	m.HealPair(MonitorNode, victim)
	// Clean probes reset the strike counts: no delayed depose fires.
	time.Sleep(15 * cfg.Replication.HealthInterval)
	if s := c.ReplicationStats(); s.Promotions != 0 {
		t.Fatalf("healed monitor deposed a healthy primary: %+v", s)
	}
	for i := 0; i < 150; i++ {
		key := fmt.Sprintf("mb%d", i)
		mustGet(t, c, key, key)
	}
	waitQuiesced(t, c)
	if err := c.VerifyReplicas(); err != nil {
		t.Fatal(err)
	}
}

// TestSplitBrainIsolatedPrimaryQuorumFailover is the real split-brain: a
// node is cut off from the monitor AND its peers. The vote passes (each
// standby is reachable and demonstrably cannot hear its primary), the
// standbys are promoted at a higher epoch, and the marooned primaries —
// still running, unreachable, unfenceable — lose their ack quorum to the
// hub's epoch fence and self-fence. After the heal they are demoted in
// place and their node rejoins as a standby host. No acked write is lost
// and the final state matches a fault-free oracle byte for byte.
func TestSplitBrainIsolatedPrimaryQuorumFailover(t *testing.T) {
	cfg, m := splitBrainConfig(t)
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	oracle, err := New(replConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	defer oracle.Stop()

	want := make(map[string]string)
	keyPid := make(map[string]int)
	for i := 0; i < 100; i++ {
		key := fmt.Sprintf("ip%d", i)
		keyPid[key] = mustPut(t, c, key)
		mustPut(t, oracle, key)
		want[key] = key
	}
	waitQuiesced(t, c)

	victim := c.Nodes()[0].ID
	other := c.Nodes()[1].ID
	victimPids := append([]int(nil), c.Nodes()[0].Partitions...)
	onVictim := make(map[int]bool)
	for _, pid := range victimPids {
		onVictim[pid] = true
	}
	// Keys living on the partitions about to be marooned, in write order.
	var victimKeys []string
	for i := 0; i < 100; i++ {
		if key := fmt.Sprintf("ip%d", i); onVictim[keyPid[key]] {
			victimKeys = append(victimKeys, key)
		}
	}
	if len(victimKeys) < 2 {
		t.Fatalf("only %d keys on the victim's partitions", len(victimKeys))
	}
	stragglerKey := victimKeys[0]
	victimKeys = victimKeys[1:]

	cutAt := time.Now()
	m.BlockPair(MonitorNode, victim)
	m.BlockPair(other, victim)

	// A write racing the cut lands on a marooned primary and stalls in the
	// ack wait (self-fencing never fails an executed write — that would
	// double-apply on retry). It must eventually complete: the post-heal
	// demotion fences the stale primary, the retry lands on the promoted
	// successor, and the marooned copy's effects die with the deposition.
	straggler := make(chan error, 1)
	go func() {
		res := c.Call(&engine.Txn{Proc: "Put", Key: stragglerKey, Args: map[string]string{"v": "rescued"}})
		straggler <- res.Err
	}()
	res := oracle.Call(&engine.Txn{Proc: "Put", Key: stragglerKey, Args: map[string]string{"v": "rescued"}})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	want[stragglerKey] = "rescued"

	// Every marooned partition fails over to its standby on the live side.
	waitStat(t, c, "promotions", 15*time.Second,
		func(s ReplicationStats) int64 { return s.Promotions }, int64(len(victimPids)))
	if s := c.ReplicationStats(); s.Failovers == 0 {
		t.Fatalf("promotions without failovers: %+v", s)
	}
	t.Logf("cut→all %d partitions promoted in %v", len(victimPids), time.Since(cutAt))

	// Mid-cut writes flow through the promoted primaries. (Only the marooned
	// partitions accept writes during the cut: the survivor node's own
	// primaries lost their cross-hosted standbys to the same cut and
	// self-fence until the heal — availability is surrendered exactly where
	// redundancy is gone, never correctness.)
	for _, key := range victimKeys {
		res := c.Call(&engine.Txn{Proc: "Put", Key: key, Args: map[string]string{"v": key + "-2"}})
		if res.Err != nil {
			t.Fatalf("mid-cut put %s: %v", key, res.Err)
		}
		res = oracle.Call(&engine.Txn{Proc: "Put", Key: key, Args: map[string]string{"v": key + "-2"}})
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		want[key] = key + "-2"
	}

	m.HealAll()

	// The marooned primaries are demoted in place once reachable again.
	waitStat(t, c, "stale demotions", 15*time.Second,
		func(s ReplicationStats) int64 { return s.StaleDemotions }, int64(len(victimPids)))

	// Rejoin: the deposed node comes back as a standby host for the
	// partitions it lost.
	deadline := time.Now().Add(15 * time.Second)
	for {
		ok := true
		c.mu.RLock()
		for _, pid := range victimPids {
			found := false
			for _, h := range c.replicas[pid] {
				if h.node == victim && h.rep.Serving() && h.rep.Seeded() {
					found = true
				}
			}
			ok = ok && found
		}
		c.mu.RUnlock()
		if ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("deposed node never rejoined as a standby host")
		}
		time.Sleep(10 * time.Millisecond)
	}

	select {
	case err := <-straggler:
		if err != nil {
			t.Fatalf("straggler write failed: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("straggler write never completed after heal")
	}

	wantSum, wantRows, err := oracle.QuiescedChecksum(10 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	gotSum, gotRows, err := c.QuiescedChecksum(30 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if gotSum != wantSum || gotRows != wantRows {
		t.Fatalf("post-heal checksum %x (%d rows), oracle %x (%d rows): split-brain diverged state",
			gotSum, gotRows, wantSum, wantRows)
	}
	for key, v := range want {
		mustGet(t, c, key, v)
	}
	if err := c.VerifyReplicas(); err != nil {
		t.Fatal(err)
	}
	s := c.ReplicationStats()
	t.Logf("isolation stats: failovers=%d promotions=%d blocked=%d stale_demotions=%d fenced_writes=%d quorum_losses=%d shed_writes=%d resyncs=%d",
		s.Failovers, s.Promotions, s.PromotionsBlocked, s.StaleDemotions,
		s.FencedWrites, s.QuorumLosses, s.QuorumLostWrites, s.Resyncs)
}

// TestSplitBrainChaosScheduleConvergence runs a seeded random partition
// schedule — directed cuts among both nodes and the monitor — under a
// durable replicated cluster while a client writes through it with retries.
// After the schedule drains and links heal, the cluster must converge to
// exactly the fault-free oracle's state: same checksum, same row count.
func TestSplitBrainChaosScheduleConvergence(t *testing.T) {
	inj := faultinject.New(faultinject.Options{
		Seed:           chaosSeed(t),
		PartitionProb:  0.4,
		PartitionFor:   120 * time.Millisecond,
		PartitionEvery: 15 * time.Millisecond,
	})
	m := inj.Matrix()
	cfg := replConfig(1)
	cfg.Replication = fastReplOpts(t)
	cfg.Links = m
	cfg.LinkConnWrap = m.WrapConn
	cfg.DataDir = t.TempDir()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	oracle, err := New(replConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	defer oracle.Stop()

	for i := 0; i < 50; i++ {
		key := fmt.Sprintf("ch%d", i)
		mustPut(t, c, key)
		mustPut(t, oracle, key)
	}
	waitQuiesced(t, c)

	stop := make(chan struct{})
	done := inj.PartitionLoop(func() []int {
		eps := []int{MonitorNode}
		for _, n := range c.Nodes() {
			eps = append(eps, n.ID)
		}
		return eps
	}, stop)

	// Writes are idempotent puts retried to success, so the acked set is
	// identical to the oracle's no matter how the schedule interleaves
	// failovers, sheds, and stalls.
	writeStart := time.Now()
	for i := 50; i < 200; i++ {
		key := fmt.Sprintf("ch%d", i)
		deadline := time.Now().Add(60 * time.Second)
		for {
			res := c.Call(&engine.Txn{Proc: "Put", Key: key, Args: map[string]string{"v": key}})
			if res.Err == nil {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("put %s never succeeded under chaos: %v", key, res.Err)
			}
		}
		mustPut(t, oracle, key)
	}

	writeDur := time.Since(writeStart)
	close(stop)
	<-done
	m.HealAll()
	healAt := time.Now()

	wantSum, wantRows, err := oracle.QuiescedChecksum(10 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	// Convergence: stale primaries demoted, partitions recovered, respawned
	// standbys caught up. Retry the quiesce until the monitor settles.
	var gotSum uint64
	var gotRows int
	deadline := time.Now().Add(60 * time.Second)
	for {
		gotSum, gotRows, err = c.QuiescedChecksum(10 * time.Second)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("cluster never quiesced after chaos: %v", err)
		}
	}
	if gotSum != wantSum || gotRows != wantRows {
		t.Fatalf("post-chaos checksum %x (%d rows), oracle %x (%d rows)", gotSum, gotRows, wantSum, wantRows)
	}
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("ch%d", i)
		mustGet(t, c, key, key)
	}
	fc := inj.Counters()
	s := c.ReplicationStats()
	t.Logf("chaos schedule: cuts=%d heals=%d blackholes=%d over %v of writes; converged %v after heal",
		fc.Cuts, fc.Heals, fc.Blackholes, writeDur.Round(time.Millisecond), time.Since(healAt).Round(time.Millisecond))
	t.Logf("chaos stats: failovers=%d promotions=%d blocked=%d stale_demotions=%d fenced_writes=%d quorum_losses=%d shed_writes=%d resyncs=%d",
		s.Failovers, s.Promotions, s.PromotionsBlocked, s.StaleDemotions,
		s.FencedWrites, s.QuorumLosses, s.QuorumLostWrites, s.Resyncs)
}

// TestDoubleFaultDurableStandbyRecovery: kill a primary, let its durable
// standby take over, then kill the successor before any snapshot — with
// respawn paused so no new standby can absorb the second fault. Recovery
// must come from the promoted standby's own command log, which the
// promotion carried over as the partition's durable home, and lose zero
// acked writes.
func TestDoubleFaultDurableStandbyRecovery(t *testing.T) {
	cfg := replConfig(1)
	cfg.Replication = fastReplOpts(t)
	cfg.DataDir = t.TempDir()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	byPid := make(map[int][]string)
	for i := 0; i < 120; i++ {
		key := fmt.Sprintf("df%d", i)
		pid := mustPut(t, c, key)
		byPid[pid] = append(byPid[pid], key)
	}
	waitQuiesced(t, c)

	pid := c.Nodes()[0].Partitions[0]
	for i := 120; len(byPid[pid]) < 10; i++ {
		key := fmt.Sprintf("df%d", i)
		if p := mustPut(t, c, key); p == pid {
			byPid[pid] = append(byPid[pid], key)
		}
	}
	waitQuiesced(t, c)

	// Respawn paused: after the standby is promoted, nothing replaces it.
	c.SetRespawnPaused(true)

	c.KillPartition(pid)
	waitStat(t, c, "first promotion", 15*time.Second,
		func(s ReplicationStats) int64 { return s.Promotions }, 1)

	// Acked writes between the faults exist only in the promoted standby's
	// continued command log (group commit, no snapshot, no replicas).
	for _, key := range byPid[pid] {
		res := c.Call(&engine.Txn{Proc: "Put", Key: key, Args: map[string]string{"v": key + "-2"}})
		if res.Err != nil {
			t.Fatalf("put %s after first failover: %v", key, res.Err)
		}
	}

	// The promotion must have carried the standby's log over as the
	// partition's durable home.
	c.mu.RLock()
	home := c.primaries[pid].home
	c.mu.RUnlock()
	if !strings.Contains(home, "replica-") {
		t.Fatalf("durable home after promotion = %q, want the promoted standby's own log dir", home)
	}

	// Second fault: the successor dies before any snapshot.
	secondKill := time.Now()
	c.KillPartition(pid)
	waitStat(t, c, "disk recovery", 15*time.Second,
		func(s ReplicationStats) int64 { return s.Promotions }, 2)
	t.Logf("second fault recovered from the promoted standby's log in %v", time.Since(secondKill))

	for _, key := range byPid[pid] {
		mustGet(t, c, key, key+"-2")
	}

	// Back to normal operation: respawn resumes, replicas converge.
	c.SetRespawnPaused(false)
	deadline := time.Now().Add(15 * time.Second)
	for {
		if err := c.WaitReplicasCaughtUp(15 * time.Second); err == nil {
			if err := c.VerifyReplicas(); err == nil {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("replicas never converged after double fault")
		}
		time.Sleep(10 * time.Millisecond)
	}
	checkWiring(t, c)
}

// TestDeposeQuorumVote checks the promotion vote's accounting directly —
// the safety function that makes "I can't see it" different from "it is
// gone". The cohort is the monitor (always yes), the primary's node (yes
// iff the monitor's view of it is clean both ways) and each standby's node
// (yes iff monitor-reachable and demonstrably deaf to the primary).
func TestDeposeQuorumVote(t *testing.T) {
	m := faultinject.NewMatrix()
	cfg := testConfig()
	cfg.Links = m
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	part := storage.NewPartition(99, 4, []int{0, 1, 2, 3})
	part.CreateTable("T")
	liveExec := engine.NewExecutor(part, testRegistry(), engine.Config{})
	defer liveExec.Stop()
	deadPart := storage.NewPartition(98, 4, nil)
	deadExec := engine.NewExecutor(deadPart, testRegistry(), engine.Config{})
	deadExec.Stop()
	feed := replication.NewFeed(99, nil, 1, 0, replication.Options{Seed: 1}, c.Events())
	defer feed.Close()
	standby := []*replicaHandle{{node: 1}}

	const primary = 0
	cases := []struct {
		name  string
		setup func()
		exec  *engine.Executor
		want  bool
	}{
		{"fail-stop, all links clear", func() {}, deadExec, true},
		{"wedged but alive, links clear (monitor's observations trusted)", func() {}, liveExec, true},
		{"monitor blind to primary, standby still hears it", func() {
			m.BlockPair(MonitorNode, primary)
		}, liveExec, false},
		{"primary fully isolated", func() {
			m.BlockPair(MonitorNode, primary)
			m.BlockPair(1, primary)
		}, liveExec, true},
		{"monitor isolated (can reach nobody)", func() {
			m.BlockPair(MonitorNode, primary)
			m.BlockPair(MonitorNode, 1)
		}, liveExec, false},
		{"asymmetric: only primary→monitor cut", func() {
			m.Block(primary, MonitorNode)
		}, liveExec, false},
		{"primary stopped but monitor-blind: standbys carry the vote", func() {
			m.BlockPair(MonitorNode, primary)
		}, deadExec, true},
	}
	for _, tc := range cases {
		m.HealAll()
		tc.setup()
		if got := c.deposeQuorum(primary, tc.exec, feed, standby); got != tc.want {
			t.Errorf("%s: vote = %v, want %v", tc.name, got, tc.want)
		}
	}

	// No standbys: cohort is monitor + primary node; a reachable stopped
	// primary deposes (2/2), an unreachable one cannot (1/2).
	m.HealAll()
	if !c.deposeQuorum(primary, deadExec, feed, nil) {
		t.Error("reachable stopped primary with no standbys: vote should pass")
	}
	m.BlockPair(MonitorNode, primary)
	if c.deposeQuorum(primary, deadExec, feed, nil) {
		t.Error("unreachable primary with no standbys: vote should block")
	}
	m.HealAll()

	// With no Links configured the vote never blocks (legacy behavior).
	plain, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Stop()
	if !plain.deposeQuorum(primary, liveExec, feed, standby) {
		t.Error("link-less cluster: vote should always pass")
	}
}

// TestProbeStrikeAccounting drives the monitor's probe loop body directly
// (replication off, so no live monitor interferes and failover attempts
// no-op on the missing feed): a blocked link is a strike, never an
// immediate failover — even for a stopped executor — strikes accumulate to
// the threshold and reset on the first clean probe.
func TestProbeStrikeAccounting(t *testing.T) {
	m := faultinject.NewMatrix()
	cfg := testConfig()
	cfg.Links = m
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	opts := replication.Options{HealthInterval: 10 * time.Millisecond}.Normalized()
	strikes := make(map[int]int)
	stop := make(chan struct{})
	node0 := c.Nodes()[0]
	pid := node0.Partitions[0]

	c.probePrimaries(stop, strikes, opts)
	if len(strikes) != 0 {
		t.Fatalf("healthy cluster accumulated strikes: %v", strikes)
	}

	// Asymmetric block (node cannot reach the monitor) is still a failed
	// observation: strikes accumulate once per probe round.
	m.Block(node0.ID, MonitorNode)
	for want := 1; want < probeStrikes; want++ {
		c.probePrimaries(stop, strikes, opts)
		if strikes[pid] != want {
			t.Fatalf("strikes[%d] = %d after %d blocked probes, want %d", pid, strikes[pid], want, want)
		}
	}
	// Threshold round: the strike count is consumed by the failover attempt
	// (a no-op here — no feed), not left to re-fire every round.
	c.probePrimaries(stop, strikes, opts)
	if _, ok := strikes[pid]; ok {
		t.Fatalf("strikes[%d] survived the threshold round: %v", pid, strikes)
	}

	// Flaky probe: one strike, then a clean round resets to zero.
	c.probePrimaries(stop, strikes, opts)
	if strikes[pid] != 1 {
		t.Fatalf("strikes[%d] = %d, want 1", pid, strikes[pid])
	}
	m.Heal(node0.ID, MonitorNode)
	c.probePrimaries(stop, strikes, opts)
	if _, ok := strikes[pid]; ok {
		t.Fatalf("clean probe did not reset strikes: %v", strikes)
	}

	// A stopped executor behind a blocked link takes the strike path — the
	// monitor cannot actually observe the stop, so no immediate failover.
	c.mu.RLock()
	exec := c.primaries[pid].exec
	c.mu.RUnlock()
	exec.Stop()
	m.Block(MonitorNode, node0.ID)
	c.probePrimaries(stop, strikes, opts)
	if strikes[pid] != 1 {
		t.Fatalf("blocked stopped primary: strikes[%d] = %d, want 1 (no immediate path)", pid, strikes[pid])
	}
	// Healed: the stop is observable, the immediate path clears the count.
	m.Heal(MonitorNode, node0.ID)
	c.probePrimaries(stop, strikes, opts)
	if _, ok := strikes[pid]; ok {
		t.Fatalf("observable stop left strikes behind: %v", strikes)
	}
}
