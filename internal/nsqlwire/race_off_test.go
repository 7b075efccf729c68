//go:build !race

package nsqlwire

const raceEnabled = false
