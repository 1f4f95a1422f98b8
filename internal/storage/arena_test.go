package storage

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
)

// Tests for arena page sizing: a bucket's pages start at arenaMinPage and
// double up to arenaPageSize, so retained memory follows what the bucket
// holds.

// checkArena verifies the arena's exact accounting: retained is Σ cap(page).
func checkArena(t *testing.T, a *arena) {
	t.Helper()
	caps := 0
	for _, p := range a.pages {
		caps += cap(p)
	}
	if caps != a.retained {
		t.Fatalf("retained %d, Σ cap(page) %d", a.retained, caps)
	}
}

// TestArenaPagesDouble fills one arena with equal tuples and checks the page
// sizes it opens: 512 B, then each page twice the last, then full-size
// pages from arenaPageSize on.
func TestArenaPagesDouble(t *testing.T) {
	var a arena
	tuple := make([]byte, 100)
	for a.retained < 4*arenaPageSize {
		a.place(tuple)
		checkArena(t, &a)
	}
	want := arenaMinPage
	for i, p := range a.pages {
		if cap(p) != want {
			t.Fatalf("page %d: cap %d, want %d", i, cap(p), want)
		}
		want = min(2*want, arenaPageSize)
	}
	if n := len(a.pages); cap(a.pages[n-1]) != arenaPageSize || n != 8+3 {
		t.Fatalf("%d pages, last %d B: want 7 doublings from %d B and then full pages", n, cap(a.pages[n-1]), arenaMinPage)
	}
}

// TestArenaFirstPageFitsTuple checks a first tuple larger than arenaMinPage
// (but not jumbo) opens the smallest page of the series that holds it.
func TestArenaFirstPageFitsTuple(t *testing.T) {
	for _, n := range []int{1, arenaMinPage, arenaMinPage + 1, 3000, arenaPageSize / 4} {
		var a arena
		got := a.place(make([]byte, n))
		if len(got) != n || len(a.pages) != 1 {
			t.Fatalf("tuple of %d B: placed %d B over %d pages", n, len(got), len(a.pages))
		}
		if c := cap(a.pages[0]); c < n || (c > arenaMinPage && c/2 >= n) {
			t.Errorf("tuple of %d B opened a %d B page", n, c)
		}
		checkArena(t, &a)
	}
}

// TestArenaJumboPlacement pins the jumbo rule under geometric pages: a tuple
// over arenaPageSize/4 gets its own exact-size page behind the active page,
// the active page keeps filling, and the doubling series does not advance.
func TestArenaJumboPlacement(t *testing.T) {
	var a arena
	small := make([]byte, 64)
	first := a.place(small)
	jumbo := make([]byte, arenaPageSize/4+1)
	for i := range jumbo {
		jumbo[i] = byte(i)
	}
	j := a.place(jumbo)
	if len(a.pages) != 2 || cap(a.pages[0]) != len(jumbo) || cap(a.pages[1]) != arenaMinPage {
		t.Fatalf("pages after a jumbo: %d, caps %d/%d", len(a.pages), cap(a.pages[0]), cap(a.pages[len(a.pages)-1]))
	}
	if string(j) != string(jumbo) {
		t.Fatal("jumbo bytes damaged")
	}
	second := a.place(small)
	if &second[0] != &a.pages[1][len(first)] {
		t.Fatal("the tuple after a jumbo did not land in the active page")
	}
	// A jumbo first tuple: the first regular page still starts the series.
	var b arena
	b.place(jumbo)
	b.place(small)
	if n := len(b.pages); n != 2 || cap(b.pages[n-1]) != arenaMinPage {
		t.Fatalf("regular page after a jumbo first tuple: %d pages, cap %d", n, cap(b.pages[n-1]))
	}
	checkArena(t, &a)
	checkArena(t, &b)
}

// TestCompactSizesFreshArena checks compaction rewrites the live tuples into
// one page sized for them, not a page series regrown from arenaMinPage.
func TestCompactSizesFreshArena(t *testing.T) {
	rows := newBucketRows()
	s := newSchema()
	val := string(make([]byte, 900))
	compactions := 0
	for i := 0; compactions == 0; i++ {
		before := rows.dead
		rows.putTuple(appendTuple(nil, s, fmt.Sprintf("k%d", i%6), map[string]string{"v": val, "i": fmt.Sprint(i)}))
		if rows.dead < before {
			compactions++
		}
		if i > 10000 {
			t.Fatal("no compaction after 10000 overwrites")
		}
	}
	if rows.dead != 0 {
		t.Fatalf("dead %d after compaction", rows.dead)
	}
	if len(rows.ar.pages) != 1 {
		t.Fatalf("fresh arena has %d pages, want one sized for %d live bytes", len(rows.ar.pages), rows.live)
	}
	if got, want := cap(rows.ar.pages[0]), pageFor(rows.live); got != want || got < rows.live {
		t.Fatalf("fresh page %d B for %d live bytes, want %d", got, rows.live, want)
	}
	if rows.ar.retained != cap(rows.ar.pages[0]) {
		t.Fatalf("retained %d, page %d", rows.ar.retained, cap(rows.ar.pages[0]))
	}
}

// TestSmallBucketChurnFootprint is the compaction-floor guard: four 200 B
// rows rewritten 2000 times must never retain more than 4 KiB. A fixed
// 64 KiB dead-byte floor let the same bucket climb to ~130 KB.
func TestSmallBucketChurnFootprint(t *testing.T) {
	const limit = 4 << 10
	rows := newBucketRows()
	s := newSchema()
	val := string(make([]byte, 200))
	peak := 0
	for i := 0; i < 2000*4; i++ {
		rows.putTuple(appendTuple(nil, s, fmt.Sprintf("k%d", i%4), map[string]string{"v": val}))
		peak = max(peak, rows.ar.retained)
	}
	if peak > limit {
		t.Errorf("peak retained %d B for %d live bytes, want ≤ %d", peak, rows.live, limit)
	}
}

// TestSmallBucketsFootprint is the footprint guard: one small row in each of
// 256 buckets × 4 tables used to open 1024 full 64 KiB pages (64 MiB); it
// must now retain at most a sixteenth of that, by the store's own
// accounting and on the heap.
func TestSmallBucketsFootprint(t *testing.T) {
	const nBuckets, nTables = 256, 4
	const limit = nBuckets * nTables * arenaPageSize / 16
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	p := NewPartition(0, nBuckets, allBuckets(nBuckets))
	for tab := 0; tab < nTables; tab++ {
		p.CreateTable(fmt.Sprintf("T%d", tab))
	}
	filled := make([]bool, nBuckets)
	for i, n := 0, 0; n < nBuckets; i++ {
		key := fmt.Sprintf("row-%d", i)
		b := BucketOf(key, nBuckets)
		if filled[b] {
			continue
		}
		filled[b] = true
		n++
		for tab := 0; tab < nTables; tab++ {
			if err := p.Put(fmt.Sprintf("T%d", tab), key, map[string]string{"v": "x"}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got := p.RowCount(); got != nBuckets*nTables {
		t.Fatalf("RowCount = %d", got)
	}
	if got := p.SizeBytes(); got > limit {
		t.Errorf("SizeBytes = %d, want ≤ %d", got, limit)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(p)
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew > limit {
		t.Errorf("heap grew %d bytes for %d one-row bucket-tables, want ≤ %d", grew, nBuckets*nTables, limit)
	}
}

// FuzzArena applies put/overwrite/delete sequences to one bucket's rows
// against a map oracle. After every step each value must read back, live
// and dead must account for every placed byte, and retained must be
// Σ cap(page) — across compactions and jumbo tuples alike.
//
// Each step is three input bytes: the key (low 3 bits of the first byte,
// so keys collide and overwrite), the operation (a delete when the next
// 2 bits are 0), and a value length from the other two bytes, which the
// top bit of the first widens past the jumbo threshold.
func FuzzArena(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x01, 0x10, 0x00, 0x09, 0x20, 0x01, 0x01, 0x00, 0x00})
	// Long overwrite runs of multi-KiB values reach compaction; a few
	// jumbo tuples and deletes ride along.
	rng := rand.New(rand.NewSource(1))
	for _, steps := range []int{200, 800} {
		seed := make([]byte, 3*steps)
		rng.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		rows := newBucketRows()
		s := newSchema()
		oracle := map[string]string{}
		for i := 0; i+3 <= len(ops); i += 3 {
			key := fmt.Sprintf("k%d", ops[i]&7)
			size := int(binary.LittleEndian.Uint16(ops[i+1:])) % (arenaPageSize / 4)
			if ops[i]&0x80 != 0 {
				size += arenaPageSize / 4
			}
			if (ops[i]>>3)&3 == 0 {
				_, had := oracle[key]
				if rows.delete(key) != had {
					t.Fatalf("step %d: delete(%s) disagrees with the oracle (had %v)", i/3, key, had)
				}
				delete(oracle, key)
			} else {
				val := fmt.Sprintf("%d:%s", i, make([]byte, size))
				tuple := appendTuple(nil, s, key, map[string]string{"v": val})
				rows.putTuple(tuple)
				oracle[key] = val
			}
			// Compaction and the empty-bucket reset rewrite the arena: the
			// bytes placed since are exactly live + dead.
			used := 0
			for _, p := range rows.ar.pages {
				used += len(p)
			}
			if used != rows.live+rows.dead {
				t.Fatalf("step %d: pages hold %d bytes, live %d + dead %d", i/3, used, rows.live, rows.dead)
			}
			caps := 0
			for _, p := range rows.ar.pages {
				caps += cap(p)
				if cap(p) > arenaPageSize && cap(p) != len(p) {
					t.Fatalf("step %d: regular page of %d B exceeds arenaPageSize", i/3, cap(p))
				}
			}
			if caps != rows.ar.retained {
				t.Fatalf("step %d: retained %d, Σ cap(page) %d", i/3, rows.ar.retained, caps)
			}
			if rows.dead > rows.live && rows.dead >= pageFor(rows.live) {
				t.Fatalf("step %d: dead %d > live %d past the pageFor(live) floor without compaction", i/3, rows.dead, rows.live)
			}
			if rows.len() != len(oracle) {
				t.Fatalf("step %d: %d rows, oracle %d", i/3, rows.len(), len(oracle))
			}
			live := 0
			for k, want := range oracle {
				tuple := rows.get(k)
				if tuple == nil {
					t.Fatalf("step %d: %s missing", i/3, k)
				}
				live += len(tuple)
				if got, ok := (TupleView{b: tuple, schema: s}).Col("v"); !ok || got != want {
					t.Fatalf("step %d: %s reads %d bytes, want %d", i/3, k, len(got), len(want))
				}
			}
			if live != rows.live {
				t.Fatalf("step %d: live %d, indexed tuples hold %d", i/3, rows.live, live)
			}
		}
	})
}
