//go:build race

package flexpath

// raceEnabled: the race detector changes escape analysis and inlining, so
// exact allocation counts only hold without it.
const raceEnabled = true
