//go:build race

package nsqlclient

// raceEnabled reports that the race detector is on: it allocates on its
// own, so the allocation ceilings are not checked under it.
const raceEnabled = true
