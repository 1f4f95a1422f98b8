//go:build race

package engine

// raceEnabled gates allocation-count assertions: under the race detector
// sync.Pool deliberately drops a share of Puts, so pooled paths allocate.
const raceEnabled = true
