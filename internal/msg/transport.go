package msg

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
//
// SendAppend is the same conversation with the reply appended to out,
// which the caller owns: a requester that reuses its buffers moves a
// message pair without allocating. Send is SendAppend to nil.
type Transport interface {
	Send(server string, payload []byte) ([]byte, error)
	SendAppend(server string, payload, out []byte) ([]byte, error)
}

var _ Transport = (*Client)(nil)
