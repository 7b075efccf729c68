//go:build !race

package sql_test

const raceEnabled = false
