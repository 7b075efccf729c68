//go:build !race

package nsqlclient

const raceEnabled = false
