package harness

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"time"

	"pstore/internal/b2w"
	"pstore/internal/cluster"
	"pstore/internal/durability"
	"pstore/internal/engine"
	"pstore/internal/migration"
	"pstore/internal/server"
)

// cartSystem is the cart_* deployment: the production write path with every
// hop live — two nodes of two partitions, k=1, durable, group commit at its
// default, durable standbys, periodic snapshots — over Carts preloaded carts.
type cartSystem struct {
	*System
	carts *cartSet
	dir   string
}

func cartConfig(o Options, dir string) cluster.Config {
	return cluster.Config{
		InitialNodes:      2,
		PartitionsPerNode: 2,
		NBuckets:          256,
		Tables:            b2w.Tables,
		Registry:          newRegistry(),
		Engine:            engine.Config{},
		DataDir:           dir,
		ReplicationFactor: 1,
		Durability:        durability.Options{SnapshotInterval: o.Scale.SnapshotGap},
	}
}

// runCart is cart_write (every request an AddLineToCart) and cart_read (95 %
// session-consistent GetCart reads served by standbys, 5 % writes from the
// same clients so the sessions are live): closed loops on the same cluster,
// data and callers, using the same layers differently.
func runCart(o Options, r *Run) error {
	base := o.dataDir()
	if err := claimDataDir(base); err != nil {
		return err
	}
	defer removeAll(base)

	rep := 0
	sys, setup, err := repeatSetup(o.Scale, func() (*cartSystem, error) {
		rep++
		dir := filepath.Join(base, fmt.Sprintf("rep%d", rep))
		cs := newCartSet("cart", o.Scale.Carts, o.Env.Conns, o.Seed)
		s, err := Assemble(cartConfig(o, dir), migration.Options{}, o.Env.Conns, o.Traced, cs.preload)
		if err != nil {
			return nil, err
		}
		return &cartSystem{System: s, carts: cs, dir: dir}, nil
	}, func(s *cartSystem) {
		s.Close()
		removeAll(s.dir)
	})
	if err != nil {
		return err
	}
	defer sys.Close()

	readShare := 0.0
	if o.Workload == WorkloadCartRead {
		readShare = 0.95
	}
	w := newCartWorkload(sys.carts, o.Scale.Callers, readShare, o.Seed)
	loop := &closedLoop{clients: sys.Clients, callers: o.Scale.Callers, epoch: time.Now()}

	// Warm up unmeasured first, so the counter snapshots bracket exactly the
	// measured window.
	loop.run(o.Scale.Warmup, w.op)
	settleMemory()
	before := sys.snapCounters()
	acked0, maybe0 := sys.carts.writes()
	rtBefore := snapRuntime()
	loop.epoch = time.Now()
	obs := startObserver(sys.Cluster, loop.epoch, o.Traced)
	samples, wall, cpu := loop.run(time.Duration(o.Seconds*float64(time.Second)), w.op)
	obs.finish()
	after := sys.snapCounters()

	lr := &loadResult{
		samples: samples, moves: obs.moves, wall: wall, cpu: cpu, rssMax: obs.rssMax,
		avgMachines: float64(sys.Cluster.NumNodes()), slo: sloCart,
		before: rtBefore, after: snapRuntime(),
	}
	sp := finishRun(r, lr, setup)
	catchup, verr := verifyReplicas(sys.Cluster)
	r.gate("replicas-verify", verr)
	r.gate("read-your-writes", w.violation())
	if busy := float64(cpu) / float64(wall) / float64(o.Env.GOMAXPROCS); busy < 0.7 {
		r.note("process CPU %.0f%% of GOMAXPROCS: the closed loop is not CPU-bound on this host", busy*100)
	}

	// Counts the smoke test compares: reads must add nothing to the log or
	// the ship stream.
	acked, maybe := sys.carts.writes()
	r.Counters["writes"] = acked + maybe - acked0 - maybe0
	r.Counters["wal_appended"] = after.appended - before.appended
	r.Counters["repl_shipped"] = after.event("repl_records_shipped") - before.event("repl_records_shipped")

	if o.Traced {
		m := r.Metrics
		emitLayerCounters(m, sys.Cluster, before, after, sp.ok, 0, 0)
		obs.emit(m)
		m.Set("durability.log_bytes_per_txn", ratio(float64(after.dirBytes-before.dirBytes), float64(r.Counters["wal_appended"])), "B", int(r.Counters["wal_appended"]))
		if err := probeStack(o, r, sys, w); err != nil {
			return err
		}
		r.TraceFile = filepath.Join(o.OutDir, "trace-"+o.Workload+".jsonl")
		if err := newTracer(loop.epoch).write(r.TraceFile, o.Workload, samples); err != nil {
			return err
		}
	}

	// Correctness gates: acked ⇒ readable, before and after a crash that
	// discards unflushed bytes.
	if o.BreakAudit {
		sys.carts.addPhantom()
	}
	r.gate("acked-write-audit", sys.carts.audit(sys.Cluster, o.Env.GOMAXPROCS))
	r.gate("bucket-ownership", checkOwnership(sys.Cluster))
	snapshotTook, tail, err := snapshotAndTail(sys, loop, w)
	if err != nil {
		return err
	}
	recoverTook, err := sys.CrashAndReopen()
	r.gate("crash-recover", err)
	if err != nil {
		return nil
	}
	if o.Traced {
		r.Metrics.Set("replication.catchup_s", catchup.Seconds(), "s", 1)
		r.Metrics.Set("durability.snapshot_s", snapshotTook.Seconds(), "s", 1)
		r.Metrics.Set("durability.recover_s", recoverTook.Seconds(), "s", 1)
		r.Metrics.Set("durability.recover_txns_per_s", ratio(float64(tail), recoverTook.Seconds()), "1/s", int(tail))
	}
	r.gate("acked-write-audit-after-crash", sys.carts.audit(sys.Cluster, o.Env.GOMAXPROCS))
	_, verr = verifyReplicas(sys.Cluster)
	r.gate("replicas-verify-after-crash", verr)
	return nil
}

// snapshotAndTail takes a snapshot round, then lays down a short log tail
// behind it, so the crash that follows has to load the snapshot, replay a
// known number of acked transactions and discard whatever was unflushed,
// with the primaries' share of recovery bounded however long the run was.
func snapshotAndTail(sys *cartSystem, loop *closedLoop, w *cartWorkload) (snapshot time.Duration, tail int64, err error) {
	start := time.Now()
	if err := sys.Cluster.SnapshotAll(); err != nil {
		return 0, 0, fmt.Errorf("harness: snapshot: %w", err)
	}
	snapshot = time.Since(start)
	acked0, maybe0 := sys.carts.writes()
	loop.run(300*time.Millisecond, w.writeOp)
	acked1, maybe1 := sys.carts.writes()
	return snapshot, acked1 + maybe1 - acked0 - maybe0, nil
}

// cartWorkload generates the cart_* request mix. Keys are uniform over the
// carts (§8.1) and SKUs uniform over a cart's eight lines; every caller has
// its own generator seeded from the run seed.
type cartWorkload struct {
	carts     *cartSet
	readShare float64
	rngs      []*rand.Rand
	// reread is the cart each caller last wrote: its next request reads that
	// cart back, so every write is followed by a read that must observe it.
	reread []int

	mu  sync.Mutex
	ryw error // first read-your-writes violation
}

func newCartWorkload(cs *cartSet, callers int, readShare float64, seed int64) *cartWorkload {
	w := &cartWorkload{carts: cs, readShare: readShare, rngs: make([]*rand.Rand, callers), reread: make([]int, callers)}
	for i := range w.rngs {
		w.rngs[i] = rand.New(rand.NewSource(seed*7919 + int64(i) + 1))
		w.reread[i] = -1
	}
	return w
}

func (w *cartWorkload) writeOp(id int, cl *server.Client, client int) (bool, error) {
	rng := w.rngs[id]
	_, err := w.carts.write(cl, client, rng.Intn(len(w.carts.keys)), rng.Intn(skusPerCart))
	return true, err
}

func (w *cartWorkload) op(id int, cl *server.Client, client int) (bool, error) {
	rng := w.rngs[id]
	cart := w.reread[id]
	w.reread[id] = -1
	if cart < 0 {
		cart = rng.Intn(len(w.carts.keys))
		if rng.Float64() >= w.readShare {
			_, err := w.carts.write(cl, client, cart, rng.Intn(skusPerCart))
			if err == nil && w.readShare > 0 {
				w.reread[id] = cart
			}
			return true, err
		}
	}
	// A session read must see every write this client (session) had acked
	// before the read was issued, and can see at most what was ever issued.
	lo := skusPerCart + int(w.carts.acked[client][cart].Load())
	res, err := cl.Read(b2w.ProcGetCart, w.carts.keys[cart], noArgs)
	if err != nil {
		return false, err
	}
	got, err := cartQuantity(res.Out["lines"])
	if err != nil {
		return false, err
	}
	if hi := skusPerCart + int(w.carts.issued[cart].Load()); got < lo || got > hi {
		w.mu.Lock()
		if w.ryw == nil {
			w.ryw = fmt.Errorf("read of %s returned quantity %d, session had acked %d (issued %d)", w.carts.keys[cart], got, lo, hi)
		}
		w.mu.Unlock()
	}
	return false, nil
}

func (w *cartWorkload) violation() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.ryw
}
