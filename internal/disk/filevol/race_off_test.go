//go:build !race

package filevol

const raceEnabled = false
