//go:build race

package main

// raceEnabled reports a race-instrumented build, which runs the service
// several times slower than the steer-reflection deadline assumes.
const raceEnabled = true
