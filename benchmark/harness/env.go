package harness

import (
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// Env stamps a ledger with what it was measured on.
type Env struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Conns      int    `json:"tcp_connections"`
}

// SizeProcess applies the load-sizing rule shared by every workload: server
// and generator live in one process on min(nproc, 4) Ps, and the generator
// opens at most min(nproc, 2) TCP connections — callers are goroutines
// multiplexed on them, never more OS threads than cores.
func SizeProcess() Env {
	nproc := runtime.NumCPU()
	procs := min(nproc, 4)
	runtime.GOMAXPROCS(procs)
	return Env{
		Commit:     commit(),
		GoVersion:  runtime.Version(),
		NProc:      nproc,
		GOMAXPROCS: procs,
		Conns:      min(nproc, 2),
	}
}

// commit names the measured tree; the driver's checkout is not a git
// repository, so it may be unknown.
func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rssBytes reads the current resident set size from /proc (0 if
// unavailable).
func rssBytes() int64 {
	raw, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	fields := strings.Fields(string(raw))
	if len(fields) < 2 {
		return 0
	}
	pages, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return 0
	}
	return pages * int64(os.Getpagesize())
}

// settleMemory collects what set-up and warm-up left behind and returns it to
// the OS, so rss_peak_mb measures the run and not the garbage before it.
func settleMemory() {
	runtime.GC()
	debug.FreeOSMemory()
}

// runtimeSnap is the slice of runtime.MemStats the runtime.* metrics need.
type runtimeSnap struct {
	mallocs    uint64
	allocBytes uint64
	numGC      uint32
	pauseNs    [256]uint64
	gcCPUFrac  float64
}

func snapRuntime() runtimeSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return runtimeSnap{
		mallocs:    ms.Mallocs,
		allocBytes: ms.TotalAlloc,
		numGC:      ms.NumGC,
		pauseNs:    ms.PauseNs,
		gcCPUFrac:  ms.GCCPUFraction,
	}
}

// maxPauseSince returns the longest GC pause between two snapshots (the
// runtime keeps the last 256).
func (after runtimeSnap) maxPauseSince(before runtimeSnap) time.Duration {
	var max uint64
	n := after.numGC - before.numGC
	if n > 256 {
		n = 256
	}
	for i := uint32(0); i < n; i++ {
		if p := after.pauseNs[(after.numGC-1-i)%256]; p > max {
			max = p
		}
	}
	return time.Duration(max)
}
