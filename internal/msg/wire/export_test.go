package wire

import "io"

// ReadFrame reads one frame with a fresh frameReader.
func ReadFrame(r io.Reader, maxFrame int) (Frame, int, error) {
	var fr frameReader
	return fr.read(r, maxFrame)
}
