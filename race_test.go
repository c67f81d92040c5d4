//go:build race

package maimon

// raceEnabled reports whether the test binary was built with -race. The
// detector makes sync.Pool drop items at random, so allocation ceilings
// that rely on pooled scratch cannot hold under it.
const raceEnabled = true
