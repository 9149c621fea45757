// Package wire carries the Agent ↔ Controller ↔ Analyzer protocol over
// TCP, as in the paper's deployment where the three modules interact over
// the management network (Fig 3). Frames are a 4-byte big-endian length
// prefix followed by a body of one of two kinds, told apart by its first
// byte:
//
//   - upload frames carry a proto.RecordBatch in the flat record codec,
//     whose first byte is the codec version (1) — the same columnar form
//     the pipeline, analyzer and tsdb consume, so ingest never boxes;
//   - control frames (register, pinglists, lookup, federation ops, and
//     every response) are JSON objects, which always start with '{'.
//
// The Server wraps any proto.Controller and proto.UploadSink; the Client
// implements both interfaces, so an Agent can be pointed at a remote
// Controller/Analyzer without code changes.
package wire

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"net/netip"
	"slices"
	"sync"
	"time"

	"rpingmesh/internal/proto"
	"rpingmesh/internal/topo"
)

// MaxFrame bounds a frame's payload size (a full pinglist batch for a
// large host fits well under this).
const MaxFrame = 16 << 20

// maxKeptBuffer caps the frame buffer a connection keeps between frames:
// one large upload must not pin its size for the connection's lifetime.
const maxKeptBuffer = 1 << 20

// Op codes of the JSON control frames. Uploads have no op code: a body
// that does not start with '{' is a flat record batch.
const (
	opRegister  = "register"
	opPinglists = "pinglists"
	opLookup    = "lookup"
)

type request struct {
	Op       string           `json:"op"`
	Register []proto.RNICInfo `json:"register,omitempty"`
	Host     topo.HostID      `json:"host,omitempty"`
	IP       netip.Addr       `json:"ip,omitzero"`

	// Federation ops (fed.* — see fed.go).
	Hello     *proto.Hello     `json:"hello,omitempty"`
	Heartbeat *proto.Heartbeat `json:"heartbeat,omitempty"`
	Votes     *proto.VoteBatch `json:"votes,omitempty"`
	SinceSeq  uint64           `json:"since_seq,omitempty"`
}

type response struct {
	OK        bool             `json:"ok"`
	Error     string           `json:"error,omitempty"`
	Pinglists []proto.Pinglist `json:"pinglists,omitempty"`
	Info      *proto.RNICInfo  `json:"info,omitempty"`
	Found     bool             `json:"found,omitempty"`

	// Federation replies.
	HelloReply *proto.HelloReply   `json:"hello_reply,omitempty"`
	Ack        *proto.VoteAck      `json:"ack,omitempty"`
	Sync       *proto.IncidentSync `json:"sync,omitempty"`
}

// appendBody appends a frame body to dst and returns the extended buffer.
type appendBody func(dst []byte) ([]byte, error)

// jsonBody encodes v as a JSON control body.
func jsonBody(v any) appendBody {
	return func(dst []byte) ([]byte, error) {
		body, err := json.Marshal(v)
		if err != nil {
			return dst, fmt.Errorf("wire: marshal: %w", err)
		}
		return append(dst, body...), nil
	}
}

// appendFrame appends one length-prefixed frame to dst. On error dst is
// returned unextended.
func appendFrame(dst []byte, body appendBody) ([]byte, error) {
	start := len(dst)
	out, err := body(append(dst, 0, 0, 0, 0))
	if err != nil {
		return dst[:start], err
	}
	n := len(out) - start - 4
	if n > MaxFrame {
		return dst[:start], fmt.Errorf("wire: frame of %d bytes exceeds limit", n)
	}
	binary.BigEndian.PutUint32(out[start:], uint32(n))
	return out, nil
}

// writeFrame writes one length-prefixed JSON frame with a single Write.
func writeFrame(w io.Writer, v any) error {
	frame, err := appendFrame(nil, jsonBody(v))
	if err != nil {
		return err
	}
	_, err = w.Write(frame)
	return err
}

// readBody reads one frame and returns its body, reusing buf's capacity
// when it is large enough.
func readBody(r io.Reader, buf []byte) ([]byte, error) {
	hdr := slices.Grow(buf[:0], 4)[:4]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr)
	if n > MaxFrame {
		return nil, fmt.Errorf("wire: frame of %d bytes exceeds limit", n)
	}
	body := slices.Grow(hdr[:0], int(n))[:n]
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, err
	}
	return body, nil
}

// readFrame reads one JSON frame into v.
func readFrame(r io.Reader, v any) error {
	body, err := readBody(r, nil)
	if err != nil {
		return err
	}
	return json.Unmarshal(body, v)
}

// recycle returns buf emptied for the next frame, or nil when it grew
// past maxKeptBuffer.
func recycle(buf []byte) []byte {
	if cap(buf) > maxKeptBuffer {
		return nil
	}
	return buf[:0]
}

// Server exposes a Controller and an UploadSink over TCP. Either may be
// nil, in which case the corresponding ops fail.
type Server struct {
	ln   net.Listener
	ctrl proto.Controller
	sink proto.UploadSink
	fed  FedBackend

	mu     sync.Mutex // serializes backend access
	connWG sync.WaitGroup
	closed chan struct{}

	connMu sync.Mutex
	conns  map[net.Conn]struct{}
}

// Serve starts accepting on ln. It returns immediately; the accept loop
// runs until Close.
func Serve(ln net.Listener, ctrl proto.Controller, sink proto.UploadSink) *Server {
	s := &Server{
		ln: ln, ctrl: ctrl, sink: sink,
		closed: make(chan struct{}),
		conns:  make(map[net.Conn]struct{}),
	}
	s.connWG.Add(1)
	go s.acceptLoop()
	return s
}

// Listen is a convenience: listen on addr ("127.0.0.1:0" for tests) and
// serve.
func Listen(addr string, ctrl proto.Controller, sink proto.UploadSink) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return Serve(ln, ctrl, sink), nil
}

// Addr returns the listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the listener, closes live connections, and waits for the
// connection handlers to drain.
func (s *Server) Close() error {
	select {
	case <-s.closed:
		return nil
	default:
	}
	close(s.closed)
	err := s.ln.Close()
	s.connMu.Lock()
	for conn := range s.conns {
		_ = conn.Close()
	}
	s.connMu.Unlock()
	s.connWG.Wait()
	return err
}

// ConnCount reports the live connection count (observability for the
// chaos harness and tests).
func (s *Server) ConnCount() int {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	return len(s.conns)
}

// DisconnectAll severs every live connection without stopping the
// listener — the chaos harness's wire fault. Clients are expected to
// survive it: Client redials once per request, so the next round trip
// re-establishes the session (§4.1's Controller-restart story).
func (s *Server) DisconnectAll() int {
	s.connMu.Lock()
	n := len(s.conns)
	for conn := range s.conns {
		_ = conn.Close()
	}
	s.connMu.Unlock()
	return n
}

func (s *Server) acceptLoop() {
	defer s.connWG.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.connMu.Lock()
		s.conns[conn] = struct{}{}
		s.connMu.Unlock()
		s.connWG.Add(1)
		go func() {
			defer s.connWG.Done()
			defer func() {
				s.connMu.Lock()
				delete(s.conns, conn)
				s.connMu.Unlock()
				conn.Close()
			}()
			s.handle(conn)
		}()
	}
}

func (s *Server) handle(conn net.Conn) {
	var in, out []byte
	for {
		body, err := readBody(conn, in)
		if err != nil {
			return // EOF or oversized frame: drop the connection
		}
		resp, err := s.handleBody(body)
		if err != nil {
			return // garbage: drop the connection
		}
		in = recycle(body)
		if out, err = appendFrame(recycle(out), jsonBody(&resp)); err != nil {
			return
		}
		if _, err := conn.Write(out); err != nil {
			return
		}
	}
}

// handleBody decodes and runs one frame body. A body starting with '{'
// is a JSON control request; anything else is a flat record batch,
// whose leading version byte the codec checks. A body that decodes as
// neither is an error and the caller drops the connection.
func (s *Server) handleBody(body []byte) (response, error) {
	if len(body) > 0 && body[0] == '{' {
		var req request
		if err := json.Unmarshal(body, &req); err != nil {
			return response{}, err
		}
		return s.dispatch(&req), nil
	}
	// A fresh batch per frame: record sinks may keep it (the pipeline
	// queues it). The decoder copies every field out of body, so the
	// connection reuses body's buffer for the next frame.
	rb := new(proto.RecordBatch)
	if err := rb.UnmarshalBinary(body); err != nil {
		return response{}, err
	}
	return s.upload(rb), nil
}

// upload hands a decoded batch to the sink: flat when the sink takes
// records, boxed otherwise.
func (s *Server) upload(rb *proto.RecordBatch) response {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sink == nil {
		return response{Error: "no sink"}
	}
	if rs, ok := s.sink.(proto.RecordSink); ok {
		rs.UploadRecords(rb)
	} else {
		s.sink.Upload(rb.ToUploadBatch())
	}
	return response{OK: true}
}

func (s *Server) dispatch(req *request) response {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch req.Op {
	case opRegister:
		if s.ctrl == nil {
			return response{Error: "no controller"}
		}
		s.ctrl.Register(req.Register)
		return response{OK: true}
	case opPinglists:
		if s.ctrl == nil {
			return response{Error: "no controller"}
		}
		return response{OK: true, Pinglists: s.ctrl.Pinglists(req.Host)}
	case opLookup:
		if s.ctrl == nil {
			return response{Error: "no controller"}
		}
		info, found := s.ctrl.Lookup(req.IP)
		return response{OK: true, Info: &info, Found: found}
	case opFedHello, opFedHeartbeat, opFedVotes, opFedSync:
		return s.dispatchFed(req)
	default:
		return response{Error: fmt.Sprintf("unknown op %q", req.Op)}
	}
}

// Reconnect backoff bounds: the first failed redial waits BackoffBase,
// each further failure doubles it up to BackoffMax, and a deterministic
// jitter keeps a fleet of agents severed by one controller restart from
// redialling in lockstep.
const (
	BackoffBase = 50 * time.Millisecond
	BackoffMax  = 5 * time.Second
)

// Client speaks the wire protocol and implements proto.Controller and
// proto.UploadSink. It is safe for concurrent use; requests are
// serialized on one connection. A broken connection is redialled once
// per request (Controllers restart; Agents keep running — §4.1's
// re-registration story depends on it); while the server stays
// unreachable, redial attempts back off exponentially and requests
// inside the backoff window fail fast instead of hot-spinning dials.
type Client struct {
	addr string

	mu     sync.Mutex
	conn   net.Conn
	closed bool
	err    error

	// Dial-failure backoff state. Only failed dials back off: a round
	// trip that redials successfully (the server restarted) pays nothing.
	dialFails  int
	nextDialAt time.Time

	// Injectable for tests; defaulted by Dial.
	now    func() time.Time
	dialFn func(addr string) (net.Conn, error)

	// Per-client scratch, reused under mu: the upload conversion, the
	// outgoing frame and the response body.
	rb      proto.RecordBatch
	out, in []byte
}

// Dial connects to a Server.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &Client{
		addr: addr, conn: conn,
		now:    time.Now,
		dialFn: func(a string) (net.Conn, error) { return net.Dial("tcp", a) },
	}, nil
}

// backoffDelay is the wait after the n-th consecutive dial failure
// (n >= 1): capped exponential with deterministic jitter in
// [delay/2, delay], derived from the address and the failure count so
// retry schedules are reproducible but distinct across clients.
func backoffDelay(addr string, n int) time.Duration {
	d := BackoffBase
	for i := 1; i < n && d < BackoffMax; i++ {
		d *= 2
	}
	if d > BackoffMax {
		d = BackoffMax
	}
	h := fnv.New64a()
	_, _ = h.Write([]byte(addr))
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(n))
	_, _ = h.Write(b[:])
	half := int64(d / 2)
	if half <= 0 {
		return d
	}
	return time.Duration(half + int64(h.Sum64()%uint64(half+1)))
}

// redial re-establishes the connection, honoring the backoff window.
// Callers hold mu.
func (c *Client) redial() error {
	if c.dialFails > 0 && c.now().Before(c.nextDialAt) {
		if c.err == nil {
			c.err = fmt.Errorf("wire: dial %s backing off", c.addr)
		}
		return c.err
	}
	conn, err := c.dialFn(c.addr)
	if err != nil {
		c.dialFails++
		c.nextDialAt = c.now().Add(backoffDelay(c.addr, c.dialFails))
		c.err = err
		return err
	}
	c.conn = conn
	c.dialFails = 0
	c.nextDialAt = time.Time{}
	return nil
}

// Close closes the connection.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	c.err = errors.New("wire: client closed")
	if c.conn == nil {
		return nil
	}
	err := c.conn.Close()
	c.conn = nil
	return err
}

// Err returns the last unrecovered transport error encountered by the
// fire-and-forget interface methods (Register/Upload), or nil.
func (c *Client) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// roundTrip encodes one request frame and exchanges it for a response.
func (c *Client) roundTrip(body appendBody) (response, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return response{}, c.err
	}
	frame, err := appendFrame(recycle(c.out), body)
	c.out = frame
	if err != nil {
		c.err = err
		return response{}, err
	}
	resp, err := c.attempt(frame)
	if err == nil {
		c.err = nil
		return resp, nil
	}
	if !resp.OK && resp.Error != "" {
		// Application-level error: the transport is fine.
		return resp, err
	}
	// Transport failure: redial (subject to backoff) and retry once.
	if c.conn != nil {
		_ = c.conn.Close()
		c.conn = nil
	}
	if derr := c.redial(); derr != nil {
		return response{}, derr
	}
	resp, err = c.attempt(frame)
	if err != nil {
		c.err = err
		return response{}, err
	}
	c.err = nil
	return resp, nil
}

// attempt sends one encoded frame on the current connection with a
// single Write and reads the response; callers hold mu.
func (c *Client) attempt(frame []byte) (response, error) {
	if c.conn == nil {
		return response{}, errors.New("wire: no connection")
	}
	if _, err := c.conn.Write(frame); err != nil {
		return response{}, err
	}
	body, err := readBody(c.conn, c.in)
	if err != nil {
		return response{}, err
	}
	c.in = recycle(body)
	var resp response
	if err := json.Unmarshal(body, &resp); err != nil {
		return response{}, err
	}
	if !resp.OK {
		return resp, errors.New("wire: " + resp.Error)
	}
	return resp, nil
}

// Register implements proto.Controller.
func (c *Client) Register(infos []proto.RNICInfo) {
	_, _ = c.roundTrip(jsonBody(&request{Op: opRegister, Register: infos}))
}

// Pinglists implements proto.Controller.
func (c *Client) Pinglists(host topo.HostID) []proto.Pinglist {
	resp, err := c.roundTrip(jsonBody(&request{Op: opPinglists, Host: host}))
	if err != nil {
		return nil
	}
	return resp.Pinglists
}

// Lookup implements proto.Controller.
func (c *Client) Lookup(ip netip.Addr) (proto.RNICInfo, bool) {
	resp, err := c.roundTrip(jsonBody(&request{Op: opLookup, IP: ip}))
	if err != nil || !resp.Found || resp.Info == nil {
		return proto.RNICInfo{}, false
	}
	return *resp.Info, true
}

// Upload implements proto.UploadSink. The batch travels as one flat
// record frame, converted and encoded in the client's reused scratch.
func (c *Client) Upload(batch proto.UploadBatch) {
	_, _ = c.roundTrip(func(dst []byte) ([]byte, error) {
		c.rb.SetFromBatch(batch)
		return c.rb.AppendBinary(dst)
	})
}

var (
	_ proto.Controller = (*Client)(nil)
	_ proto.UploadSink = (*Client)(nil)
)
