package harness

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"pstore/internal/server"
)

// sample is one request's outcome. due is when the request was due (open
// loop) or sent (closed loop), in nanoseconds since the run's epoch; lat is
// the time from then to the reply, or -1 when the request failed, was
// refused, or could not be sent.
type sample struct {
	due, lat int64
	write    bool
}

// request is one generated call. cart ≥ 0 marks a write of the harness's
// own audit stream, which goes through the cart oracle.
type request struct {
	proc, key string
	args      map[string]string
	cart, sku int
}

// openLoop fires requests on a schedule regardless of how the system is
// doing: each request runs on its own goroutine, multiplexed over the
// clients' connections, and is timed from the instant it was due — so a
// request the pacer reaches late is charged its lateness, not dropped.
// Requests the generator could not send count as failed.
type openLoop struct {
	clients []*server.Client
	carts   *cartSet // audit stream oracle
	epoch   time.Time
	// maxInflight bounds the goroutines a stalled system can pin; a request
	// due while that many are outstanding is never sent.
	maxInflight int64

	inflight atomic.Int64
	wg       sync.WaitGroup

	mu      sync.Mutex
	samples []sample
	lagNs   []float64
	dropped int64
	busy    int64
}

// pace fires count(slot) evenly spaced requests in each of slots slots of
// slotWall, drawing each from next on the pacer goroutine (so the request
// sequence is a function of the seed alone), and returns when the schedule
// ends. wait then collects the stragglers.
func (g *openLoop) pace(slots int, slotWall time.Duration, count func(slot int) int, next func() request) {
	seq := 0
	for slot := 0; slot < slots; slot++ {
		slotStart := g.epoch.Add(time.Duration(slot) * slotWall)
		n := count(slot)
		for k := 0; k < n; k++ {
			due := slotStart.Add(time.Duration(k) * slotWall / time.Duration(n))
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
			lag := time.Since(due)
			req := next()
			dueNs := due.Sub(g.epoch).Nanoseconds()
			send := g.inflight.Load() < g.maxInflight
			g.mu.Lock()
			g.lagNs = append(g.lagNs, float64(lag.Nanoseconds()))
			if !send {
				g.dropped++
				g.samples = append(g.samples, sample{due: dueNs, lat: -1})
			}
			g.mu.Unlock()
			if !send {
				continue
			}
			g.inflight.Add(1)
			g.wg.Add(1)
			client := seq % len(g.clients)
			go g.fire(req, due, dueNs, g.clients[client], client)
			seq++
		}
	}
	if d := time.Until(g.epoch.Add(time.Duration(slots) * slotWall)); d > 0 {
		time.Sleep(d)
	}
}

func (g *openLoop) fire(req request, due time.Time, dueNs int64, cl *server.Client, client int) {
	defer g.wg.Done()
	defer g.inflight.Add(-1)
	var err error
	if req.cart >= 0 {
		_, err = g.carts.write(cl, client, req.cart, req.sku)
	} else {
		var res *server.CallResult
		res, err = cl.Call(req.proc, req.key, req.args)
		if err != nil && res != nil && res.Abort {
			err = nil // an intentional abort (cart not found, out of stock) is a reply
		}
	}
	lat := time.Since(due).Nanoseconds()
	g.mu.Lock()
	if err != nil {
		lat = -1
		if errors.Is(err, server.ErrServerBusy) {
			g.busy++
		}
	}
	g.samples = append(g.samples, sample{due: dueNs, lat: lat, write: req.cart >= 0})
	g.mu.Unlock()
}

// wait blocks until every fired request has its reply.
func (g *openLoop) wait() { g.wg.Wait() }

// closedLoop runs callers that each send their next request only after the
// previous reply: the caller count, not a schedule, sets the load.
type closedLoop struct {
	clients []*server.Client
	callers int
	epoch   time.Time
}

// run starts the callers, lets them run for dur, waits for their last
// replies and returns every request's sample, the wall time and the CPU the
// process burned meanwhile. op performs one request for caller id and reports
// whether it was a write and whether it failed.
func (l *closedLoop) run(dur time.Duration, op func(id int, cl *server.Client, client int) (write bool, err error)) (samples []sample, wall, cpu time.Duration) {
	var stop atomic.Bool
	per := make([][]sample, l.callers)
	var wg sync.WaitGroup
	cpu0, t0 := cpuTime(), time.Now()
	for id := 0; id < l.callers; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			client := id % len(l.clients)
			cl := l.clients[client]
			for !stop.Load() {
				start := time.Now()
				write, err := op(id, cl, client)
				s := sample{due: start.Sub(l.epoch).Nanoseconds(), lat: time.Since(start).Nanoseconds(), write: write}
				if err != nil {
					s.lat = -1
				}
				per[id] = append(per[id], s)
			}
		}(id)
	}
	time.Sleep(dur)
	stop.Store(true)
	wg.Wait()
	wall, cpu = time.Since(t0), cpuTime()-cpu0
	for _, p := range per {
		samples = append(samples, p...)
	}
	return samples, wall, cpu
}
