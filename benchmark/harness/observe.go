package harness

import (
	"runtime"
	"sync"
	"time"

	"pstore/internal/cluster"
)

// interval is a span of the measured run, in nanoseconds since its epoch.
type interval struct{ start, end int64 }

// observer watches the cluster from outside while a run is measured: every
// millisecond it looks for Reconfiguring() edges (requests are later
// classified as due during or outside a move), and at a slower cadence it
// samples resident memory — plus, on traced runs, executor queue depth,
// replication lag and goroutine count.
type observer struct {
	c      *cluster.Cluster
	epoch  time.Time
	traced bool

	stop chan struct{}
	done chan struct{}

	mu            sync.Mutex
	moves         []interval
	moveFrom      []int // node count just before each move began
	moveTo        []int // node count just after it ended
	rssMax        int64
	queueSum      float64
	queueSamples  int
	queueMax      int
	lagMax        uint64
	goroutinesMax int
}

func startObserver(c *cluster.Cluster, epoch time.Time, traced bool) *observer {
	o := &observer{c: c, epoch: epoch, traced: traced, stop: make(chan struct{}), done: make(chan struct{})}
	go o.loop()
	return o
}

func (o *observer) loop() {
	defer close(o.done)
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	moving := false
	var began int64
	nodes := o.c.NumNodes()
	fromNodes := nodes
	for n := 0; ; n++ {
		select {
		case <-o.stop:
			if moving {
				o.endMove(began, time.Since(o.epoch).Nanoseconds(), fromNodes, o.c.NumNodes())
			}
			return
		case <-tick.C:
		}
		now := time.Since(o.epoch).Nanoseconds()
		switch r := o.c.Reconfiguring(); {
		case r && !moving:
			moving, began, fromNodes = true, now, nodes
		case !r && moving:
			moving = false
			o.endMove(began, now, fromNodes, o.c.NumNodes())
		}
		if !moving {
			// Scale-out adds its nodes the moment the move starts, so the
			// "before" count must come from a sample taken while idle.
			nodes = o.c.NumNodes()
		}
		if n%10 == 0 {
			o.slowSample()
		}
	}
}

func (o *observer) endMove(start, end int64, from, to int) {
	o.mu.Lock()
	o.moves = append(o.moves, interval{start, end})
	o.moveFrom = append(o.moveFrom, from)
	o.moveTo = append(o.moveTo, to)
	o.mu.Unlock()
}

func (o *observer) slowSample() {
	rss := rssBytes()
	var qsum, qmax, gor int
	var lag uint64
	if o.traced {
		for _, e := range o.c.Executors() {
			q := e.QueueLen()
			qsum += q
			if q > qmax {
				qmax = q
			}
		}
		// ReplicationStats subtracts two unsynchronised reads; a replica that
		// applied a record in between makes the unsigned gap wrap around.
		if l := o.c.ReplicationStats().MaxLagRecords; l < 1<<62 {
			lag = l
		}
		gor = runtime.NumGoroutine()
	}
	o.mu.Lock()
	if rss > o.rssMax {
		o.rssMax = rss
	}
	if o.traced {
		o.queueSum += float64(qsum)
		o.queueSamples++
		if qmax > o.queueMax {
			o.queueMax = qmax
		}
		if lag > o.lagMax {
			o.lagMax = lag
		}
		if gor > o.goroutinesMax {
			o.goroutinesMax = gor
		}
	}
	o.mu.Unlock()
}

// emit reports what the traced sampler saw.
func (o *observer) emit(m Metrics) {
	n := o.queueSamples
	m.Set("engine.queue_len_mean", ratio(o.queueSum, float64(n)), "count", n)
	m.Set("engine.queue_len_max", float64(o.queueMax), "count", n)
	m.Set("replication.max_lag_records", float64(o.lagMax), "count", n)
	m.Set("runtime.goroutines_max", float64(o.goroutinesMax), "count", n)
}

// finish stops the observer and waits for it.
func (o *observer) finish() {
	close(o.stop)
	<-o.done
}

// inMove reports whether offset t (ns since epoch) falls inside a move.
// moves is in time order and non-overlapping.
func inMove(moves []interval, t int64) bool {
	lo, hi := 0, len(moves)
	for lo < hi {
		mid := (lo + hi) / 2
		switch {
		case t < moves[mid].start:
			hi = mid
		case t >= moves[mid].end:
			lo = mid + 1
		default:
			return true
		}
	}
	return false
}
