//go:build !race

package nonstopsql_test

const raceEnabled = false
