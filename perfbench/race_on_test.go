//go:build race

package main

// raceDetector reports whether the tests run under the race detector, which
// changes allocation counts (sync.Pool drops items at random under it).
const raceDetector = true
