package server

import (
	"bufio"
	"fmt"
	"net"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pstore/internal/cluster"
	"pstore/internal/migration"
)

// writeCountingConn counts the server's Write calls on one connection.
type writeCountingConn struct {
	net.Conn
	writes *atomic.Int64
}

func (c writeCountingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// startReadLoopServer starts a k=1 replicated cluster behind a server whose
// connections count their writes, with benchKeys preloaded and every standby
// caught up — so a session read with an empty (or current) vector is one a
// standby can answer on the read loop.
func startReadLoopServer(t *testing.T, staleReadTimeout time.Duration) (addr string, c *cluster.Cluster, writes *atomic.Int64) {
	t.Helper()
	cfg := replClusterConfig(1, 1)
	cfg.Replication.StaleReadTimeout = staleReadTimeout
	c, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	writes = new(atomic.Int64)
	srv := New(c, migration.Options{}, nil)
	srv.WrapConns(func(conn net.Conn) net.Conn { return writeCountingConn{conn, writes} })
	addr, err = srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for _, key := range benchKeys {
		if _, err := cl.Call("Put", key, map[string]string{"v": key}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.WaitReplicasCaughtUp(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	return addr, c, writes
}

// TestReadLoopCoalescesInlineReplies pins the flush-before-block rule from
// both sides: one client write carrying 100 pipelined pings and standby
// reads is answered in a handful of server writes (each reply used to buy
// its own wake), and a lone request on the then-idle connection is still
// answered at once, without a second request to push it out.
func TestReadLoopCoalescesInlineReplies(t *testing.T) {
	addr, _, writes := startReadLoopServer(t, 0)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	br := bufio.NewReader(conn)
	var frame []byte
	// recv reads count replies and returns each one's "v" by request ID
	// (replies are matched by ID, not position).
	recv := func(count int) map[uint64]string {
		t.Helper()
		got := make(map[uint64]string, count)
		for i := 0; i < count; i++ {
			payload, err := readFrame(br, &frame)
			if err != nil {
				t.Fatalf("reply %d of %d: %v", i+1, count, err)
			}
			var resp Response
			if err := decodeResponse(payload, &resp); err != nil {
				t.Fatal(err)
			}
			if resp.Err != "" {
				t.Fatalf("reply %d: %s", resp.ID, resp.Err)
			}
			got[resp.ID] = resp.Out["v"]
		}
		return got
	}

	const n = 100
	var batch []byte
	want := make(map[uint64]string, n)
	for i := uint64(1); i <= n; i++ {
		req := Request{ID: i, Kind: KindPing}
		if i%2 == 0 {
			req = Request{ID: i, Kind: KindRead, Proc: "Get", Key: benchKeys[i%uint64(len(benchKeys))]}
		}
		want[i] = req.Key // Get returns the preloaded v == key; a ping returns nothing
		batch = appendRequest(batch, &req)
	}
	before := writes.Load()
	if _, err := conn.Write(batch); err != nil {
		t.Fatal(err)
	}
	if got := recv(n); !reflect.DeepEqual(got, want) {
		t.Fatalf("replies = %v, want %v", got, want)
	}
	if got := writes.Load() - before; got > 3 {
		t.Errorf("%d pipelined requests answered in %d server writes, want ≤ 3", n, got)
	}

	// Idle connection, one request: nothing follows it, so only the
	// about-to-block flush can deliver the reply.
	for _, req := range []Request{
		{ID: n + 1, Kind: KindPing},
		{ID: n + 2, Kind: KindRead, Proc: "Get", Key: benchKeys[0]},
	} {
		if _, err := conn.Write(appendRequest(nil, &req)); err != nil {
			t.Fatal(err)
		}
		if got, ok := recv(1)[req.ID]; !ok || got != req.Key {
			t.Fatalf("lone request %d answered with %q, %v", req.ID, got, ok)
		}
	}
}

// TestReadLoopStaleReadDoesNotBlockConnection is the head-of-line test: a
// session read naming an LSN its standby has not applied must wait off the
// read loop, so a ping and a transaction sent after it on the same
// connection complete while it is still parked; the parked read then falls
// back to the primary and is counted as one stale wait and one fallback.
func TestReadLoopStaleReadDoesNotBlockConnection(t *testing.T) {
	const staleTimeout = time.Second
	addr, c, _ := startReadLoopServer(t, staleTimeout)
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	key := benchKeys[0]
	if _, err := cl.Call("Put", key, map[string]string{"v": "mine"}); err != nil {
		t.Fatal(err)
	}
	// Claim a write far past the feed head: no standby can cover it.
	cl.sessMu.Lock()
	for pid := range cl.session {
		cl.session[pid] += 1 << 30
	}
	cl.sessMu.Unlock()
	base := c.ReplicationStats()

	type readResult struct {
		v   string
		err error
	}
	done := make(chan readResult, 1)
	go func() {
		res, err := cl.Read("Get", key, nil)
		if err != nil {
			done <- readResult{err: err}
			return
		}
		done <- readResult{v: res.Out["v"]}
	}()
	// The read is on the wire and waiting once its stale wait is counted.
	for deadline := time.Now().Add(5 * time.Second); c.ReplicationStats().StaleWaits == base.StaleWaits; {
		if time.Now().After(deadline) {
			t.Fatal("stale read never started waiting")
		}
		time.Sleep(time.Millisecond)
	}

	start := time.Now()
	if err := cl.Ping(); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Call("Put", benchKeys[1], map[string]string{"v": "after"}); err != nil {
		t.Fatal(err)
	}
	select {
	case r := <-done:
		t.Fatalf("parked read returned (%+v) before the requests behind it", r)
	default:
	}
	if took := time.Since(start); took > staleTimeout/2 {
		t.Errorf("ping+call behind a parked read took %v, want well under the %v stale wait", took, staleTimeout)
	}

	r := <-done
	if r.err != nil || r.v != "mine" {
		t.Fatalf("parked read = %q, %v; want the primary's answer", r.v, r.err)
	}
	s := c.ReplicationStats()
	if got := s.StaleWaits - base.StaleWaits; got != 1 {
		t.Errorf("stale waits = %d, want 1", got)
	}
	if got := s.FallbackReads - base.FallbackReads; got != 1 {
		t.Errorf("fallback reads = %d, want 1", got)
	}
}

// TestReadLoopReadYourWrites hammers read-your-writes through the inline
// path: goroutines sharing one Client each write a key and read it straight
// back, 10 000 round trips in all, and every read must see the write before
// it — served by a standby, on the connection's read loop.
func TestReadLoopReadYourWrites(t *testing.T) {
	addr, c, _ := startReadLoopServer(t, 0)
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	base := c.ReplicationStats()
	const workers, rounds = 8, 1250
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			key := benchKeys[w]
			for i := 0; i < rounds; i++ {
				want := fmt.Sprintf("%d-%d", w, i)
				if _, err := cl.Call("Put", key, map[string]string{"v": want}); err != nil {
					t.Errorf("put: %v", err)
					return
				}
				res, err := cl.Read("Get", key, nil)
				if err != nil {
					t.Errorf("read: %v", err)
					return
				}
				if got := res.Out["v"]; got != want {
					t.Errorf("read %s = %q after writing %q", key, got, want)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	s := c.ReplicationStats()
	if got := s.ReplicaReads - base.ReplicaReads; got < workers*rounds/2 {
		t.Errorf("only %d of %d reads were served by standbys", got, workers*rounds)
	}
}

// TestServerPingAllocatesNothing holds the ping round trip — client encode,
// read-loop decode, deferred reply, flush, client decode and delivery — to
// the 0 allocs/op BenchmarkServerPing records.
func TestServerPingAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector")
	}
	_, addr, _ := startTestServer(t)
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ping := func() {
		if err := cl.Ping(); err != nil {
			t.Error(err)
		}
	}
	for i := 0; i < 100; i++ {
		ping() // fill the pools and grow the batch buffers
	}
	if avg := testing.AllocsPerRun(2000, ping); avg != 0 {
		t.Errorf("Ping allocates %v times per round trip, want 0", avg)
	}
}

// TestReadSessionVectorAllocatesNothing holds a read's session vector to
// zero allocations: a read carrying a four-partition vector allocates no
// more than one carrying none, and neither copies the vector into a fresh
// map.
func TestReadSessionVectorAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector")
	}
	_, addr, _ := startTestServer(t)
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Call("AddLineToCart", "cart-a", map[string]string{"sku": "s", "qty": "1", "price": "1"}); err != nil {
		t.Fatal(err)
	}
	read := func() {
		if _, err := cl.Read("GetCart", "cart-a", nil); err != nil {
			t.Error(err)
		}
	}
	perRead := func() float64 {
		for i := 0; i < 100; i++ {
			read() // fill the pools and grow the batch buffers
		}
		return testing.AllocsPerRun(2000, read)
	}
	empty := perRead()
	// The in-memory test cluster logs nothing, so its writes carry no LSN;
	// give the client the vector a durable cluster's writes would leave.
	cl.sessMu.Lock()
	cl.session = map[int]uint64{0: 7, 1: 3, 2: 12, 3: 5}
	cl.sessMu.Unlock()
	if four := perRead(); four != empty {
		t.Errorf("a read with a four-partition session vector allocates %v times, %v without one; want equal", four, empty)
	}
}
