//go:build race

package sql_test

// raceEnabled: allocation counts are meaningless under the race detector.
const raceEnabled = true
