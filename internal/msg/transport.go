package msg

import (
	"sync"
	"time"
)

// A Transport is the requester's contract with the message system:
// deliver one request message to a named server process and wait for its
// reply. It is the seam the serving path is built on — the same
// request/reply discipline with two implementations:
//
//   - *Client sends through the in-process simulated interconnect, the
//     deterministic test double every experiment measures against;
//   - nsqlclient.Pool sends the same (server, payload) conversations
//     over pooled TCP connections to a live nsqld, with pipelined
//     correlation IDs on the wire.
//
// A transport-level failure (no such server, server down, reply
// deadline, broken connection) comes back as a Go error; application
// errors travel inside the reply payload. Implementations must be safe
// for concurrent Sends.
type Transport interface {
	Send(server string, payload []byte) ([]byte, error)
}

var _ Transport = (*Client)(nil)

// Reply deadlines are armed once per Send; the timers behind them are
// reused, not allocated per call.
var replyTimers sync.Pool

// AcquireTimer returns a timer that fires after d, for one reply wait.
func AcquireTimer(d time.Duration) *time.Timer {
	if t, _ := replyTimers.Get().(*time.Timer); t != nil {
		t.Reset(d)
		return t
	}
	return time.NewTimer(d)
}

// ReleaseTimer hands t back; fired says the caller received from t.C. A
// timer that fired unobserved still has — or, as Stop returns, is about
// to have — its tick in the channel: take it, so the next wait does not
// start with a deadline already passed.
func ReleaseTimer(t *time.Timer, fired bool) {
	if !fired && !t.Stop() {
		<-t.C
	}
	replyTimers.Put(t)
}
