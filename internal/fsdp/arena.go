package fsdp

import "nonstopsql/internal/poison"

// An Arena holds the bytes of a run of FS-DP messages — one statement's,
// one commit's: requests are encoded into it and each Disk Process
// appends its reply behind the request, so once it has grown to fit the
// run its messages allocate nothing. It is append-only between resets:
// every byte handed out of it — a request key, an encoded SET list, a
// reply's rows, a projected row — stays valid until Reset, which its
// owner calls once nothing reads them any more (the SQL session, when the
// next statement starts: after the last one's result has been decoded or
// encoded; the commit coordinator, when a commit or abort starts). Bytes
// that would not fit the space left are allocated apart and counted, and
// the next Reset grows the arena to the run's size. A Disk Process's
// record change makes its key and images in one the same way (dp.write).
// A reply decoded in the arena (Decode) takes its row and key lists from
// the arena too, so they — like the bytes they point into — stay valid
// until Reset: a scan hands one reply's rows on while it decodes the next.
// An Arena is used by one goroutine at a time; the zero Arena is ready to
// use.
type Arena struct {
	buf        []byte
	need       int // bytes this run took, in the arena or apart
	rows, keys list
	reply      Reply // what Decode decodes into
}

// list is an arena of list entries: the row or key lists of the replies
// an Arena decodes.
type list struct {
	l    [][]byte
	need int // entries this run took, in the list or apart
}

// maxArena bounds what an arena keeps across Reset: a run that moved
// more than this allocates its messages apart every time rather than
// pinning its high-water mark to the arena's owner. maxLists is the same
// bound on its row and key lists, in entries each.
const (
	maxArena = 64 << 10
	maxLists = 4096
)

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

// Decode decodes the reply message b into the arena's Reply, which the
// next Decode overwrites: its rows, keys and LastKey alias b, and its row
// and key lists are cut from the arena's, each message's its own, so all
// of them are valid until Reset. A nil Arena decodes into a new Reply,
// which is the caller's.
func (a *Arena) Decode(b []byte) (*Reply, error) {
	if a == nil {
		return DecodeReply(b)
	}
	r := &a.reply
	r.Rows, r.RowKeys = a.rows.free(), a.keys.free()
	if err := DecodeReplyInto(r, b); err != nil {
		return nil, err
	}
	r.Rows, r.RowKeys = a.rows.keep(r.Rows), a.keys.keep(r.RowKeys)
	return r, nil
}

func (l *list) free() [][]byte { return l.l[len(l.l):] }

// keep claims e, a list decoded into free(), as Arena.Keep claims bytes:
// capacity-clipped, so nothing appended to it reaches the next one.
func (l *list) keep(e [][]byte) [][]byte {
	l.need += len(e)
	if n := len(l.l); len(e) > 0 && cap(l.l) > n && &e[0] == &l.l[:n+1][n] {
		l.l = l.l[:n+len(e)]
		return l.l[n:len(l.l):len(l.l)]
	}
	return e
}

func (l *list) reset() {
	clear(l.l)
	switch {
	case l.need > cap(l.l) && l.need <= maxLists:
		l.l = make([][]byte, 0, l.need)
	case cap(l.l) > maxLists:
		l.l = nil
	default:
		l.l = l.l[:0]
	}
	l.need = 0
}

// Reset takes back everything the arena handed out. Under the race
// detector the bytes are poisoned first, so a read through a stale alias
// returns a wrong answer a test can see; the lists are cleared always.
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
	a.rows.reset()
	a.keys.reset()
	a.reply = Reply{}
}
