//go:build !race

package flexpath

const raceEnabled = false
