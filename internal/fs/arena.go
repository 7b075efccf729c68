package fs

import (
	"nonstopsql/internal/fsdp"
	"nonstopsql/internal/poison"
)

// An Arena holds the bytes of one statement's FS-DP messages: requests
// are encoded into it and each Disk Process appends its reply behind the
// request, so once it has grown to fit a statement its messages allocate
// nothing. It is append-only between resets: every byte handed out of it
// — a request key, a reply's rows, a projected row — stays valid until
// Reset, which its owner calls once nothing reads them any more (the SQL
// session, when the next statement starts: after the last one's result
// has been decoded or encoded). Bytes that would not fit the space left
// are allocated apart and counted, and the next Reset grows the arena to
// the statement's size. An Arena is used by one goroutine at a time; the
// zero Arena is ready to use.
type Arena struct {
	buf   []byte
	need  int        // bytes this statement took, in the arena or apart
	reply fsdp.Reply // the last reply sendIn decoded
}

// maxArena bounds what an arena keeps across Reset: a statement that
// moved more than this allocates its messages apart every time rather
// than pinning its high-water mark to the session.
const maxArena = 64 << 10

// Free returns the arena's unused tail: a zero-length slice to append to.
// A nil Arena has none: what is appended to it is allocated, and Keep
// hands it back as it is.
func (a *Arena) Free() []byte {
	if a == nil {
		return nil
	}
	return a.buf[len(a.buf):]
}

// Keep claims b, the result of appending to Free(), and returns it. When
// the append outgrew the space left, b lies in a buffer of its own and
// the arena is left as it was; the capacity that buffer took (an encoder
// sizes its growth generously) is what the next Reset makes room for.
func (a *Arena) Keep(b []byte) []byte {
	switch {
	case a == nil || len(b) == 0:
	case cap(a.buf) > len(a.buf) && &b[0] == &a.buf[:len(a.buf)+1][len(a.buf)]:
		a.buf = a.buf[:len(a.buf)+len(b)]
		a.need += len(b)
	default:
		a.need += cap(b)
	}
	return b
}

// Reset takes back everything the arena handed out. Under the race
// detector the bytes are poisoned first, so a read through a stale alias
// returns a wrong answer a test can see.
func (a *Arena) Reset() {
	poison.Fill(a.buf)
	switch {
	case a.need > cap(a.buf) && a.need <= maxArena:
		a.buf = make([]byte, 0, a.need)
	case cap(a.buf) > maxArena:
		a.buf = nil
	default:
		a.buf = a.buf[:0]
	}
	a.need = 0
}
