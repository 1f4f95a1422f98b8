// Package faultinject provides a seeded, deterministic fault injector for
// chaos-testing P-Store: a net.Conn/net.Listener wrapper that drops, delays,
// duplicates, or severs writes on a reproducible schedule, an executor
// freezer that stalls a partition's engine the way an overloaded or paging
// node would, and a migration fault hook that makes individual bucket moves
// fail transiently. The same injector drives unit tests, the end-to-end
// chaos suite, and `pstore-server -chaos`.
//
// Faults are decided per write from one seeded PRNG, so a failing run is
// replayed exactly by reusing its seed. Writes are dropped or duplicated
// whole: the wire protocol batches complete frames per write, so a dropped
// write loses messages but never tears the framing — the surviving stream
// stays decodable, which models packet loss on a message-oriented transport
// rather than byte corruption (the codec's torn-frame tests cover that).
package faultinject

//pstore:seeded — fault schedules replay from PSTORE_CHAOS_SEED; every
// draw must come from the injector's seeded rng.

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pstore/internal/engine"
	"pstore/internal/storage"
)

// ErrInjected marks a transient fault introduced by the injector. Code under
// test treats it like any other transient error; tests use errors.Is to
// verify a failure was injected rather than organic.
var ErrInjected = errors.New("faultinject: injected transient fault")

// Options configures an Injector. All probabilities are per-event in [0, 1];
// zero disables that fault class.
type Options struct {
	// Seed fixes the PRNG so a run is reproducible. Seed 0 is a valid seed
	// (not "random"): the injector is always deterministic.
	Seed int64

	// DropProb is the chance a Write is silently discarded.
	DropProb float64
	// DelayProb is the chance a Write stalls for up to MaxDelay first.
	DelayProb float64
	// MaxDelay bounds injected write delays. Defaults to 2ms.
	MaxDelay time.Duration
	// DupProb is the chance a Write is sent twice. Only safe where the
	// receiver deduplicates (response frames are matched by request ID);
	// duplicating requests models an at-least-once client.
	DupProb float64
	// SeverProb is the chance a Write kills the whole connection instead.
	SeverProb float64

	// MoveFailProb is the chance a migration bucket move fails transiently
	// (wired into migration.Options.FaultHook).
	MoveFailProb float64

	// FreezeProb is the per-tick chance that one executor freezes for
	// FreezeFor, checked every FreezeEvery by the freeze loop.
	FreezeProb float64
	// FreezeFor is how long a frozen executor stays stalled. Defaults 20ms.
	FreezeFor time.Duration
	// FreezeEvery is the freeze loop's tick interval. Defaults 50ms.
	FreezeEvery time.Duration

	// PartitionProb is the per-tick chance the partition schedule cuts one
	// random directed link between two endpoints, checked every
	// PartitionEvery by PartitionLoop.
	PartitionProb float64
	// PartitionFor is how long a cut link stays blocked. Defaults 150ms.
	PartitionFor time.Duration
	// PartitionEvery is the partition loop's tick interval. Defaults 100ms.
	PartitionEvery time.Duration
}

func (o Options) normalized() Options {
	if o.MaxDelay <= 0 {
		o.MaxDelay = 2 * time.Millisecond
	}
	if o.FreezeFor <= 0 {
		o.FreezeFor = 20 * time.Millisecond
	}
	if o.FreezeEvery <= 0 {
		o.FreezeEvery = 50 * time.Millisecond
	}
	if o.PartitionFor <= 0 {
		o.PartitionFor = 150 * time.Millisecond
	}
	if o.PartitionEvery <= 0 {
		o.PartitionEvery = 100 * time.Millisecond
	}
	return o
}

// Counters is a snapshot of how many faults the injector has fired.
type Counters struct {
	Drops      int64
	Delays     int64
	Dups       int64
	Severs     int64
	MoveFaults int64
	Freezes    int64
	// Cuts/Heals count directed partition-matrix link transitions;
	// Blackholes counts writes swallowed by a blocked link.
	Cuts       int64
	Heals      int64
	Blackholes int64
}

// Injector decides and accounts faults. Safe for concurrent use; every
// random decision draws from one seeded PRNG under a mutex, so the fault
// schedule is a deterministic function of (seed, decision order).
type Injector struct {
	opts Options

	mu     sync.Mutex
	rng    *rand.Rand
	matrix *Matrix // lazily created by Matrix()

	drops      atomic.Int64
	delays     atomic.Int64
	dups       atomic.Int64
	severs     atomic.Int64
	moveFaults atomic.Int64
	freezes    atomic.Int64
}

// New returns an injector with the given options.
func New(opts Options) *Injector {
	opts = opts.normalized()
	return &Injector{opts: opts, rng: rand.New(rand.NewSource(opts.Seed))}
}

// Counters returns a snapshot of the fault counts so far, including the
// partition matrix's if one was created.
func (in *Injector) Counters() Counters {
	c := Counters{
		Drops:      in.drops.Load(),
		Delays:     in.delays.Load(),
		Dups:       in.dups.Load(),
		Severs:     in.severs.Load(),
		MoveFaults: in.moveFaults.Load(),
		Freezes:    in.freezes.Load(),
	}
	in.mu.Lock()
	m := in.matrix
	in.mu.Unlock()
	if m != nil {
		mc := m.Counters()
		c.Cuts, c.Heals, c.Blackholes = mc.Cuts, mc.Heals, mc.Blackholes
	}
	return c
}

// roll draws one uniform [0,1) variate.
func (in *Injector) roll() float64 {
	in.mu.Lock()
	v := in.rng.Float64()
	in.mu.Unlock()
	return v
}

// rollDelay draws a delay in (0, MaxDelay].
func (in *Injector) rollDelay() time.Duration {
	in.mu.Lock()
	d := time.Duration(in.rng.Int63n(int64(in.opts.MaxDelay))) + 1
	in.mu.Unlock()
	return d
}

// MoveFault implements migration.Options.FaultHook: it fails a bucket move
// transiently with probability MoveFailProb.
func (in *Injector) MoveFault(bucket, fromPart, toPart int) error {
	if in.opts.MoveFailProb > 0 && in.roll() < in.opts.MoveFailProb {
		in.moveFaults.Add(1)
		return fmt.Errorf("%w: move of bucket %d (%d→%d)", ErrInjected, bucket, fromPart, toPart)
	}
	return nil
}

// WrapConn returns conn with write-side fault injection. Wrapping one side
// of a connection injects faults in that side's outbound direction; wrap
// both (or use WrapListener on the server and WrapConn on the client) for
// bidirectional chaos.
func (in *Injector) WrapConn(conn net.Conn) net.Conn {
	return &faultConn{Conn: conn, in: in}
}

// WrapListener returns lis with every accepted connection wrapped.
func (in *Injector) WrapListener(lis net.Listener) net.Listener {
	return &faultListener{Listener: lis, in: in}
}

type faultListener struct {
	net.Listener
	in *Injector
}

func (l *faultListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return l.in.WrapConn(conn), nil
}

// faultConn injects faults on Write. Reads pass through untouched: the
// peer's writes (possibly themselves wrapped) are the only data source, so
// write-side injection alone covers every direction that is wrapped.
type faultConn struct {
	net.Conn
	in *Injector
}

func (c *faultConn) Write(b []byte) (int, error) {
	in := c.in
	if in.opts.SeverProb > 0 && in.roll() < in.opts.SeverProb {
		in.severs.Add(1)
		c.Conn.Close()
		return 0, fmt.Errorf("%w: connection severed", ErrInjected)
	}
	if in.opts.DropProb > 0 && in.roll() < in.opts.DropProb {
		in.drops.Add(1)
		return len(b), nil // swallowed: the peer never sees these frames
	}
	if in.opts.DelayProb > 0 && in.roll() < in.opts.DelayProb {
		in.delays.Add(1)
		time.Sleep(in.rollDelay()) //pstore:ignore seeddiscipline — the delay IS the injected fault; its duration comes from the seeded rng
	}
	n, err := c.Conn.Write(b)
	if err == nil && n == len(b) && in.opts.DupProb > 0 && in.roll() < in.opts.DupProb {
		in.dups.Add(1)
		c.Conn.Write(b)
	}
	return n, err
}

// FreezeLoop periodically freezes one random executor for FreezeFor,
// emulating a stalled node (GC pause, page-in, CPU starvation): the frozen
// executor processes nothing — transactions queue behind the stall and
// migration work against it blocks — then resumes. execs is re-evaluated
// every tick so the loop tracks topology changes during scale-out/in.
// The loop exits when stop is closed; Wait-style callers should close stop
// and then drain via the returned done channel.
func (in *Injector) FreezeLoop(execs func() []*engine.Executor, stop <-chan struct{}) <-chan struct{} {
	done := make(chan struct{})
	go func() {
		defer close(done)
		var wg sync.WaitGroup
		defer wg.Wait()
		ticker := time.NewTicker(in.opts.FreezeEvery)
		defer ticker.Stop()
		for {
			select {
			case <-stop:
				return
			case <-ticker.C:
			}
			if in.opts.FreezeProb <= 0 || in.roll() >= in.opts.FreezeProb {
				continue
			}
			es := execs()
			if len(es) == 0 {
				continue
			}
			in.mu.Lock()
			e := es[in.rng.Intn(len(es))]
			in.mu.Unlock()
			in.freezes.Add(1)
			wg.Add(1)
			go func() {
				defer wg.Done()
				// The sleep runs as a partition function — on the executor
				// via the priority lane, or inline holding the partition
				// token when the partition is idle — so the whole partition
				// stalls, exactly a frozen node. Do fails harmlessly if the
				// executor already stopped.
				e.Do(func(*storage.Partition) (int, error) {
					//pstore:ignore seeddiscipline — the stall IS the injected fault (frozen node); duration is configured, not drawn
					time.Sleep(in.opts.FreezeFor)
					return 0, nil
				})
			}()
		}
	}()
	return done
}

// ParseSpec parses the `pstore-server -chaos` flag: a comma-separated list
// of key=value pairs, e.g.
//
//	seed=42,drop=0.01,delay=0.02,maxdelay=2ms,dup=0.005,sever=0.001,movefail=0.05,freeze=0.1,freezefor=50ms,freezeevery=200ms,partition=0.05,partitionfor=300ms,partitionevery=250ms
//
// Unknown keys are rejected so typos fail loudly.
func ParseSpec(spec string) (Options, error) {
	var o Options
	if strings.TrimSpace(spec) == "" {
		return o, errors.New("faultinject: empty chaos spec")
	}
	for _, kv := range strings.Split(spec, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return o, fmt.Errorf("faultinject: bad chaos entry %q (want key=value)", kv)
		}
		var err error
		switch k {
		case "seed":
			o.Seed, err = strconv.ParseInt(v, 10, 64)
		case "drop":
			o.DropProb, err = strconv.ParseFloat(v, 64)
		case "delay":
			o.DelayProb, err = strconv.ParseFloat(v, 64)
		case "maxdelay":
			o.MaxDelay, err = time.ParseDuration(v)
		case "dup":
			o.DupProb, err = strconv.ParseFloat(v, 64)
		case "sever":
			o.SeverProb, err = strconv.ParseFloat(v, 64)
		case "movefail":
			o.MoveFailProb, err = strconv.ParseFloat(v, 64)
		case "freeze":
			o.FreezeProb, err = strconv.ParseFloat(v, 64)
		case "freezefor":
			o.FreezeFor, err = time.ParseDuration(v)
		case "freezeevery":
			o.FreezeEvery, err = time.ParseDuration(v)
		case "partition":
			o.PartitionProb, err = strconv.ParseFloat(v, 64)
		case "partitionfor":
			o.PartitionFor, err = time.ParseDuration(v)
		case "partitionevery":
			o.PartitionEvery, err = time.ParseDuration(v)
		default:
			return o, fmt.Errorf("faultinject: unknown chaos key %q", k)
		}
		if err != nil {
			return o, fmt.Errorf("faultinject: chaos key %q: %w", k, err)
		}
	}
	return o, nil
}
