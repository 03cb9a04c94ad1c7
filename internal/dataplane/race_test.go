//go:build race

package dataplane

// raceEnabled reports a -race build, where sync.Pool drops pooled
// frames at random and allocation counts say nothing about the code.
const raceEnabled = true
