package harness

import (
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"pstore/internal/b2w"
	"pstore/internal/cluster"
	"pstore/internal/engine"
	"pstore/internal/server"
)

// skusPerCart bounds a cart's line items: every write adds quantity to one
// of these SKUs, and every cart is preloaded with all of them, so rows keep
// their size for the whole run.
const skusPerCart = 8

// b2w's line-item separators, as GetCart returns them.
const (
	lineSep    = "\x1e"
	lineFields = "\x1f"
)

var (
	cartSKUs  [skusPerCart]string
	cartArgs  [skusPerCart]map[string]string // AddLineToCart arguments, one per SKU; read-only
	cartLines string                         // the preloaded CART.lines value
	noArgs    = map[string]string{}
)

func init() {
	var lines []string
	for i := range cartSKUs {
		cartSKUs[i] = fmt.Sprintf("sku-%08d", i)
		cartArgs[i] = map[string]string{"sku": cartSKUs[i], "qty": "1", "price": "9.99"}
		lines = append(lines, cartSKUs[i]+lineFields+"1"+lineFields+"9.99")
	}
	cartLines = strings.Join(lines, lineSep)
}

// cartQuantity sums the quantities in a GetCart "lines" value.
func cartQuantity(lines string) (int, error) {
	if lines == "" {
		return 0, nil
	}
	total := 0
	for _, rec := range strings.Split(lines, lineSep) {
		f := strings.Split(rec, lineFields)
		if len(f) < 3 {
			return 0, fmt.Errorf("harness: malformed cart line %q", rec)
		}
		q, err := strconv.Atoi(f[1])
		if err != nil {
			return 0, fmt.Errorf("harness: cart line quantity %q: %w", f[1], err)
		}
		total += q
	}
	return total, nil
}

// cartSet is a population of carts only the harness writes, plus the oracle
// of what the system acknowledged: per client (a client is one session), how
// many AddLineToCart calls on each cart were acked, how many have an unknown
// fate (timed out or lost with the connection), and how many were issued at
// all. Every write adds quantity 1, so a cart's total quantity must lie in
// [preloaded + acked, preloaded + acked + unknown].
type cartSet struct {
	keys   []string
	acked  [][]atomic.Int32 // [client][cart]
	maybe  []atomic.Int32
	issued []atomic.Int32
}

// newCartSet mints n uniformly hashed cart keys from the seed.
func newCartSet(prefix string, n, clients int, seed int64) *cartSet {
	rng := rand.New(rand.NewSource(seed))
	cs := &cartSet{
		keys:   make([]string, n),
		acked:  make([][]atomic.Int32, clients),
		maybe:  make([]atomic.Int32, n),
		issued: make([]atomic.Int32, n),
	}
	for i := range cs.keys {
		cs.keys[i] = fmt.Sprintf("%s-%016x", prefix, rng.Uint64())
	}
	for i := range cs.acked {
		cs.acked[i] = make([]atomic.Int32, n)
	}
	return cs
}

// preload bulk-loads every cart with its full set of line items.
func (cs *cartSet) preload(c *cluster.Cluster) error {
	cols := map[string]string{"lines": cartLines, "status": b2w.StatusOpen}
	for _, key := range cs.keys {
		if err := c.LoadRow(b2w.TableCart, key, cols); err != nil {
			return err
		}
	}
	return nil
}

// write issues one AddLineToCart through the client and records its fate in
// the oracle. It reports whether the write was acked and whether it failed
// (an abort or a typed error; the workloads are sized so neither happens).
func (cs *cartSet) write(cl *server.Client, client, cart, sku int) (ok bool, err error) {
	cs.issued[cart].Add(1)
	_, err = cl.Call(b2w.ProcAddLineToCart, cs.keys[cart], cartArgs[sku])
	if err == nil {
		cs.acked[client][cart].Add(1)
		return true, nil
	}
	var ce *server.Error
	if !errors.As(err, &ce) || ce.MaybeExecuted {
		// Untyped errors are server-side failures whose effect is unknown.
		cs.maybe[cart].Add(1)
	}
	return false, err
}

func (cs *cartSet) ackedTotal(cart int) int {
	n := 0
	for c := range cs.acked {
		n += int(cs.acked[c][cart].Load())
	}
	return n
}

// writes returns how many writes were acked and how many have unknown fate.
func (cs *cartSet) writes() (acked, maybe int64) {
	for i := range cs.keys {
		acked += int64(cs.ackedTotal(i))
		maybe += int64(cs.maybe[i].Load())
	}
	return acked, maybe
}

// audit reads every cart back through the cluster and checks it against the
// oracle: acked ≤ stored ≤ acked + unknown, hence equality when nothing
// timed out. The workload must be quiesced.
func (cs *cartSet) audit(c *cluster.Cluster, workers int) error {
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		first error
	)
	fail := func(err error) {
		mu.Lock()
		if first == nil {
			first = err
		}
		mu.Unlock()
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(cs.keys); i += workers {
				res := c.Call(&engine.Txn{Proc: b2w.ProcGetCart, Key: cs.keys[i], Args: noArgs})
				if res.Err != nil {
					fail(fmt.Errorf("audit: GetCart %s: %w", cs.keys[i], res.Err))
					return
				}
				got, err := cartQuantity(res.Out["lines"])
				if err != nil {
					fail(err)
					return
				}
				lo := skusPerCart + cs.ackedTotal(i)
				hi := lo + int(cs.maybe[i].Load())
				if got < lo || got > hi {
					fail(fmt.Errorf("audit: cart %s holds quantity %d, oracle says [%d, %d] (acked writes lost or doubled)",
						cs.keys[i], got, lo, hi))
					return
				}
			}
		}(w)
	}
	wg.Wait()
	return first
}

// addPhantom credits the oracle with an acked write that never happened —
// the deliberately broken audit that proves the gate can fail.
func (cs *cartSet) addPhantom() { cs.acked[0][0].Add(1) }
