package harness

import (
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"pstore/internal/b2w"
	"pstore/internal/durability"
	"pstore/internal/engine"
	"pstore/internal/metrics"
	"pstore/internal/replication"
	"pstore/internal/server"
	"pstore/internal/storage"
)

// Hop is one row of the layer-stack table: the median cost of issuing the
// workload's transaction through one public entry point.
type Hop struct {
	Name string  `json:"name"`
	US   float64 `json:"us"`
	N    int     `json:"n"`
}

// probeStack runs the layer-stack probe after the traced load has stopped:
// one caller issues the workload's own transaction through successively
// deeper public entry points. Adjacent differences are the hop costs, and
// stack.residual_us is what the separately measured hops fail to explain of
// the full call — negative when hops that are serial here overlap in the
// live path (local fsync and standby ack run concurrently).
func probeStack(o Options, r *Run, sys *cartSystem, w *cartWorkload) error {
	n := o.Scale.ProbeCalls
	cs, c, cl := sys.carts, sys.Cluster, sys.Clients[0]
	m := r.Metrics
	hop := func(name string, d Dist) float64 {
		r.Stack = append(r.Stack, Hop{Name: name, US: d.Median(), N: len(d)})
		return d.Median()
	}

	ping, err := timeSerial(n, func(int) error { return cl.Ping() })
	if err != nil {
		return fmt.Errorf("probe ping: %w", err)
	}
	hop("Client.Ping", ping)
	loop := &closedLoop{clients: sys.Clients, callers: o.Scale.Callers, epoch: time.Now()}
	pings, _, _ := loop.run(300*time.Millisecond, func(_ int, pc *server.Client, _ int) (bool, error) {
		return false, pc.Ping()
	})
	var rtt []float64
	for _, s := range pings {
		if s.lat >= 0 {
			rtt = append(rtt, float64(s.lat)/1e3)
		}
	}
	m.Set("server.ping_rtt_us", NewDist(rtt).Median(), "us", len(rtt))

	route := timeBatched(200, 1000, func(i int) { c.RouteKey(cs.keys[probeCart(cs, i)]) })
	m.Set("cluster.route_ns", route.Median(), "ns", len(route)*1000)
	rec := metrics.NewShardedRecorder(time.Second)
	now := time.Now()
	record := timeBatched(200, 1000, func(i int) { rec.Record(now, time.Duration(i)) })
	m.Set("metrics.record_ns", record.Median(), "ns", len(record)*1000)
	timeWindows(m, c)

	part, err := standalonePartition(cs)
	if err != nil {
		return err
	}
	var sizeBytes, rows int
	for _, e := range c.Executors() {
		if err := e.Do(func(p *storage.Partition) (int, error) {
			sizeBytes += p.SizeBytes()
			rows += p.RowCount()
			return 0, nil
		}); err != nil {
			return err
		}
	}
	m.Set("storage.bytes_per_row", ratio(float64(sizeBytes), float64(rows)), "B", rows)
	getview := timeBatched(200, 100, func(i int) {
		if v, ok, _ := part.GetView(b2w.TableCart, cs.keys[probeCart(cs, i)]); ok {
			v.Col("lines")
		}
	})
	m.Set("storage.getview_us", getview.Median()/1e3, "us", len(getview)*100)

	if w.readShare > 0 {
		err = probeRead(o, r, sys, hop, route.Median()/1e3)
	} else {
		err = probeWrite(o, r, sys, part, hop, route.Median()/1e3, getview.Median()/1e3)
	}
	if err != nil {
		return err
	}
	handoff, err := timeBucketHandoff(part, part.OwnedBuckets())
	if err != nil {
		return err
	}
	m.Set("storage.bucket_handoff_us", handoff.Median(), "us", len(handoff))
	return nil
}

// probeCart spreads the probe's i-th call over the cart population.
func probeCart(cs *cartSet, i int) int { return (i * 7919) % len(cs.keys) }

// probeKeys lists the carts the probe's first n calls touch.
func probeKeys(cs *cartSet, n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = cs.keys[probeCart(cs, i)]
	}
	return keys
}

// standalonePartition builds one partition owning every bucket and holding
// the whole cart population, detached from any cluster.
func standalonePartition(cs *cartSet) (*storage.Partition, error) {
	const nBuckets = 256
	owned := make([]int, nBuckets)
	for i := range owned {
		owned[i] = i
	}
	part := storage.NewPartition(0, nBuckets, owned)
	for _, t := range b2w.Tables {
		part.CreateTable(t)
	}
	cols := map[string]string{"lines": cartLines, "status": b2w.StatusOpen}
	for _, key := range cs.keys {
		if err := part.Put(b2w.TableCart, key, cols); err != nil {
			return nil, err
		}
	}
	return part, nil
}

// probeWrite walks AddLineToCart down the write path: Client.Call →
// Cluster.Call → Executor.Call on a standalone log-less executor → the
// storage operations alone, plus the two hops the live path adds behind the
// executor — a standalone durability.Manager's append→durable and a
// standalone replication Feed's append→acked through Hub, Tail and Replica.
func probeWrite(o Options, r *Run, sys *cartSystem, part *storage.Partition, hop func(string, Dist) float64, routeUS, getviewUS float64) error {
	n := o.Scale.ProbeCalls
	cs, c, cl := sys.carts, sys.Cluster, sys.Clients[0]
	m := r.Metrics

	full, err := timeSerial(n, func(i int) error {
		_, err := cs.write(cl, 0, probeCart(cs, i), i%skusPerCart)
		return err
	})
	if err != nil {
		return fmt.Errorf("probe Client.Call: %w", err)
	}
	inproc, err := timeSerial(n, func(i int) error {
		k := probeCart(cs, i)
		cs.issued[k].Add(1)
		res := c.Call(&engine.Txn{Proc: b2w.ProcAddLineToCart, Key: cs.keys[k], Args: cartArgs[i%skusPerCart]})
		if res.Err != nil {
			cs.maybe[k].Add(1)
			return res.Err
		}
		cs.acked[0][k].Add(1)
		return nil
	})
	if err != nil {
		return fmt.Errorf("probe Cluster.Call: %w", err)
	}

	cols := map[string]string{"lines": cartLines, "status": b2w.StatusOpen}
	put := timeBatched(200, 100, func(i int) { _ = part.Put(b2w.TableCart, cs.keys[probeCart(cs, i)], cols) })
	exec := engine.NewExecutor(part, newRegistry(), engine.Config{})
	execCall, err := timeSerial(n, func(i int) error {
		return exec.Call(&engine.Txn{Proc: b2w.ProcAddLineToCart, Key: cs.keys[probeCart(cs, i)], Args: cartArgs[i%skusPerCart]}).Err
	})
	exec.Stop()
	if err != nil {
		return fmt.Errorf("probe Executor.Call: %w", err)
	}

	logUS, appendUS, err := probeDurability(filepath.Join(o.dataDir(), "probe-log"), n, cs)
	if err != nil {
		return err
	}
	shipUS, err := probeShip(filepath.Join(o.dataDir(), "probe-standby"), probeKeys(cs, n), nil)
	if err != nil {
		return err
	}

	fullUS := hop("Client.Call", full)
	inprocUS := hop("Cluster.Call", inproc)
	execUS := hop("Executor.Call", execCall)
	putUS := put.Median() / 1e3
	r.Stack = append(r.Stack,
		Hop{Name: "Partition.GetView+Put", US: getviewUS + putUS, N: len(put) * 100},
		Hop{Name: "durability.Manager.Append→durable", US: logUS.Median(), N: len(logUS)},
		Hop{Name: "replication.Feed.Append→acked", US: shipUS.Median(), N: len(shipUS)})

	m.Set("server.wire_us", fullUS-inprocUS, "us", len(full))
	m.Set("cluster.call_us", inprocUS-execUS, "us", len(inproc))
	m.Set("engine.exec_us", execUS-getviewUS-putUS, "us", len(execCall))
	m.Set("storage.put_us", putUS, "us", len(put)*100)
	m.Set("durability.append_durable_us", appendUS.Median(), "us", len(appendUS))
	// full = wire + route + exec + storage + log + ship + residual.
	m.Set("stack.residual_us", inprocUS-execUS-routeUS-logUS.Median()-shipUS.Median(), "us", len(full))
	return nil
}

// probeRead walks GetCart down the replica-read path: Client.Read →
// Cluster.CallReadOnly → a standalone seeded Replica's SessionRead.
func probeRead(o Options, r *Run, sys *cartSystem, hop func(string, Dist) float64, routeUS float64) error {
	n := o.Scale.ProbeCalls
	cs, c, cl := sys.carts, sys.Cluster, sys.Clients[0]
	m := r.Metrics

	full, err := timeSerial(n, func(i int) error {
		_, err := cl.Read(b2w.ProcGetCart, cs.keys[probeCart(cs, i)], noArgs)
		return err
	})
	if err != nil {
		return fmt.Errorf("probe Client.Read: %w", err)
	}
	session := cl.Session()
	inproc, err := timeSerial(n, func(i int) error {
		return c.CallReadOnly(b2w.ProcGetCart, cs.keys[probeCart(cs, i)], noArgs, session).Err
	})
	if err != nil {
		return fmt.Errorf("probe Cluster.CallReadOnly: %w", err)
	}
	var replicaRead Dist
	_, err = probeShip(filepath.Join(o.dataDir(), "probe-standby"), probeKeys(cs, n), func(rep *replication.Replica) error {
		var rerr error
		replicaRead, rerr = timeSerial(n, func(i int) error {
			_, err := rep.SessionRead(b2w.ProcGetCart, cs.keys[probeCart(cs, i)], noArgs, 0)
			return err
		})
		return rerr
	})
	if err != nil {
		return err
	}
	fullUS := hop("Client.Read", full)
	inprocUS := hop("Cluster.CallReadOnly", inproc)
	repUS := hop("Replica.SessionRead", replicaRead)
	m.Set("server.wire_us", fullUS-inprocUS, "us", len(full))
	m.Set("cluster.readonly_us", inprocUS-repUS, "us", len(inproc))
	// full = wire + route + replica read + residual.
	m.Set("stack.residual_us", inprocUS-repUS-routeUS, "us", len(full))
	return nil
}

// durable returns an onDurable callback that hands the outcome to done
// without ever blocking: it runs on a group-commit or ack goroutine, possibly
// under the log's locks. done must have room for the one result.
func durable(done chan<- error) func(uint64, error) {
	return func(_ uint64, err error) {
		select {
		case done <- err:
		default:
		}
	}
}

// probeDurability prices a standalone durability.Manager: append→onDurable
// from one appender (the stack's log hop) and from 64 concurrent appenders
// sharing group commits, as the live executors' callers do.
func probeDurability(dir string, n int, cs *cartSet) (serial, concurrent Dist, err error) {
	mgr, err := durability.Open(dir, 0, durability.Options{})
	if err != nil {
		return nil, nil, err
	}
	defer removeAll(dir)
	defer mgr.Close()
	appendOne := func(i int) error {
		done := make(chan error, 1)
		mgr.Append(b2w.ProcAddLineToCart, cs.keys[i%len(cs.keys)], cartArgs[i%skusPerCart], durable(done))
		return <-done
	}
	if serial, err = timeSerial(n, appendOne); err != nil {
		return nil, nil, fmt.Errorf("probe durability append: %w", err)
	}

	// Appends must be serialized by the caller (the executor, in the live
	// path); only the wait for durability overlaps.
	const appenders = 64
	var (
		appendMu sync.Mutex
		outMu    sync.Mutex
		out      []float64
		wg       sync.WaitGroup
		firstErr error
	)
	for a := 0; a < appenders; a++ {
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			for i := 0; i < n/appenders+1; i++ {
				done := make(chan error, 1)
				start := time.Now()
				appendMu.Lock()
				mgr.Append(b2w.ProcAddLineToCart, cs.keys[(a*131+i)%len(cs.keys)], cartArgs[i%skusPerCart], durable(done))
				appendMu.Unlock()
				err := <-done
				us := float64(time.Since(start).Nanoseconds()) / 1e3
				outMu.Lock()
				if err != nil && firstErr == nil {
					firstErr = err
				}
				out = append(out, us)
				outMu.Unlock()
			}
		}(a)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, nil, fmt.Errorf("probe durability concurrent append: %w", firstErr)
	}
	return serial, NewDist(out), nil
}

// probeShip stands up the replication pipeline alone — an in-memory Feed
// registered with a Hub, a Tail streaming it into a durable Replica (its own
// command log under dir, as the workload's standbys have) holding keys —
// and times one serial append per key from Append to the cumulative ack.
// withReplica, if set, runs against the seeded replica instead.
func probeShip(dir string, keys []string, withReplica func(*replication.Replica) error) (Dist, error) {
	const nBuckets = 256
	opts := replication.Options{Seed: 1}
	events := metrics.NewEvents()
	feed := replication.NewFeed(0, nil, 1, 0, opts, events)
	feed.SetSnapshotFunc(func() (*replication.Snapshot, error) {
		snap := &replication.Snapshot{Tables: b2w.Tables, LSN: feed.LSN(), Epoch: feed.Epoch()}
		for b := 0; b < nBuckets; b++ {
			snap.Buckets = append(snap.Buckets, &storage.BucketData{Bucket: b, Tables: map[string][]storage.Row{}})
		}
		return snap, nil
	})
	hub := replication.NewHub(opts, events)
	if err := hub.Register(0, feed); err != nil {
		return nil, err
	}
	if err := hub.Listen("127.0.0.1:0"); err != nil {
		return nil, err
	}
	defer hub.Close()
	defer feed.Close()
	rep, err := replication.OpenReplica(0, nBuckets, "probe-standby", newRegistry(), dir, durability.Options{}, opts, events)
	if err != nil {
		return nil, err
	}
	defer removeAll(dir)
	tail := replication.StartTail(hub.Addr(), rep, nil, opts, events)
	defer tail.Stop()
	defer rep.Kill()

	// Seed the standby with the carts the probe touches, the way
	// cluster.LoadRow does — after it has attached, so the rows arrive on the
	// live stream and not in the (empty) seeding snapshot.
	deadline := time.Now().Add(30 * time.Second)
	for !rep.Seeded() {
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("probe ship: standby never attached")
		}
		time.Sleep(time.Millisecond)
	}
	cols := map[string]string{"lines": cartLines, "status": b2w.StatusOpen}
	for _, key := range keys {
		if err := feed.LogPut(b2w.TableCart, key, cols); err != nil {
			return nil, err
		}
	}
	if err := rep.WaitApplied(feed.LSN(), 30*time.Second); err != nil {
		return nil, fmt.Errorf("probe ship: standby never caught up: %w", err)
	}
	if withReplica != nil {
		return nil, withReplica(rep)
	}
	acked, err := timeSerial(len(keys), func(i int) error {
		done := make(chan error, 1)
		feed.Append(b2w.ProcAddLineToCart, keys[i], cartArgs[i%skusPerCart], durable(done))
		return <-done
	})
	if err != nil {
		return nil, fmt.Errorf("probe ship append: %w", err)
	}
	return acked, nil
}
