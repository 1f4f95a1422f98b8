package experiments

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files from the current code")

// TestSimStudyGolden pins Figs 12 and 13 at cmd/simulate's default flags:
// every strategy's cost, insufficient-capacity fraction and move count,
// and every slot of the Black Friday trajectories. Any change to a scaling
// policy or to the simulator that moves a single decision fails here. Run
// with -update to re-record after an intended change.
func TestSimStudyGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	cfg := DefaultSimStudyConfig()
	var out bytes.Buffer
	res, err := CapacityCostStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&out, "fig12 slots=%d\n", res.Slots)
	for _, p := range res.Points {
		fmt.Fprintf(&out, "%s q=%.2f cost=%.0f insuff=%.6f moves=%d\n",
			p.Strategy, p.QFactor, p.Cost, p.InsufficientFrac, p.Moves)
	}

	windowStart := (cfg.BlackFridayDay - 1) * 288
	states, load, err := TrajectoryStudy(cfg, windowStart, 3*288)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(states))
	for n := range states {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(&out, "fig13 start=%d strategies=%v (machines/effcap/migrating)\n", windowStart, names)
	for i := 0; i < load.Len(); i++ {
		fmt.Fprintf(&out, "%d %.1f", windowStart+i, load.At(i))
		for _, n := range names {
			st := states[n][i]
			fmt.Fprintf(&out, " %d/%.1f/%t", st.Machines, st.EffCap, st.Migrating)
		}
		out.WriteByte('\n')
	}

	path := filepath.Join("testdata", "simstudy_default.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.Bytes(); !bytes.Equal(got, want) {
		gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("%s line %d:\n got  %s\n want %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("%s: got %d lines, want %d", path, len(gl), len(wl))
	}
}
