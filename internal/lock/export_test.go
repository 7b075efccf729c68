package lock

import "nonstopsql/internal/keys"

// LockGeneric acquires a generic (key-prefix) lock.
func (m *Manager) LockGeneric(tx TxID, file string, prefix []byte, mode Mode) error {
	_, err := m.Acquire(tx, file, keys.Prefix(prefix), mode)
	return err
}

// LockFile acquires a whole-file lock.
func (m *Manager) LockFile(tx TxID, file string, mode Mode) error {
	_, err := m.Acquire(tx, file, keys.All(), mode)
	return err
}

// HeldBy returns the number of grants tx currently holds.
func (m *Manager) HeldBy(tx TxID) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for g := m.byTx[tx]; g != nil; g = g.next {
		n++
	}
	return n
}
