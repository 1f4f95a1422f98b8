package server

import (
	"fmt"
	"sync"
	"testing"
	"unsafe"
)

// fullInternTable swaps in an intern table filled to internMaxEntries with
// "fill-<i>" strings, restoring the process's own table when the test ends,
// and returns the fill strings.
func fullInternTable(tb testing.TB) []string {
	tb.Helper()
	fill := make([]string, internMaxEntries)
	tab := make(map[string]string, internMaxEntries)
	for i := range fill {
		fill[i] = fmt.Sprintf("fill-%d", i)
		tab[fill[i]] = fill[i]
	}
	internMu.Lock()
	saved := internTab
	internTab = tab
	internMu.Unlock()
	tb.Cleanup(func() {
		internMu.Lock()
		internTab = saved
		internMu.Unlock()
	})
	return fill
}

// TestInternMissWhenFull hammers a full intern table with misses from
// several goroutines: every result must equal its input, hits must return
// the table's own string, and the table must not grow past its cap.
func TestInternMissWhenFull(t *testing.T) {
	fill := fullInternTable(t)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 5000; i++ {
				miss := []byte(fmt.Sprintf("miss-%d-%d", g, i))
				if got := intern(miss); got != string(miss) {
					t.Errorf("intern(%q) = %q", miss, got)
					return
				}
				want := fill[(g*5000+i)%len(fill)]
				if got := intern([]byte(want)); got != want || unsafe.StringData(got) != unsafe.StringData(want) {
					t.Errorf("intern(%q) = %q, not the interned string", want, got)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	internMu.RLock()
	n := len(internTab)
	internMu.RUnlock()
	if n != internMaxEntries {
		t.Errorf("intern table holds %d strings, cap %d", n, internMaxEntries)
	}
}

// BenchmarkInternMissFull prices a short string the full table does not
// hold — the common case for per-cart keys once more than internMaxEntries
// distinct strings have been seen.
func BenchmarkInternMissFull(b *testing.B) {
	fullInternTable(b)
	keys := make([][]byte, 50_000)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("cart-%d", i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if s := intern(keys[i%len(keys)]); len(s) == 0 {
				b.Error("empty intern result")
			}
			i++
		}
	})
}
