// Package poison marks memory a pool has taken back. Under the race
// detector Fill overwrites a released buffer with Byte, so a read through
// a stale alias returns a wrong answer a test can see, besides the race
// the detector reports; without it Fill does nothing. It is a check, like
// the detector itself, not a behaviour anyone can select.
package poison

// Byte is what a released buffer holds under the race detector.
const Byte = 0xDB

// Fill poisons b when the race detector is on.
func Fill(b []byte) {
	if enabled {
		for i := range b {
			b[i] = Byte
		}
	}
}
