//go:build !race

package dataplane

const raceEnabled = false
