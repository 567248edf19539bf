//go:build race

package influence

const raceEnabled = true
