package rpc

import (
	"errors"
	"sync"

	"pvfscache/internal/transport"
	"pvfscache/internal/wire"
)

// DefaultConcurrency bounds how many requests one connection may have in
// service at once when ServerConfig leaves Concurrency zero.
const DefaultConcurrency = 8

// Handler serves one request. Returning nil closes the connection: it
// marks a message the handler does not speak, which on a request/response
// stream is protocol corruption.
//
// Requests are decoded zero-copy: bulk payload fields (Write.Data, flush
// block data, ...) alias the connection's pooled frame buffer, which the
// server recycles as soon as Handle returns. A handler must therefore
// consume payload bytes before returning (copy them, write them to a
// store) and never retain them.
type Handler interface {
	Handle(req wire.Message) wire.Message
}

// HandlerFunc adapts a function to Handler.
type HandlerFunc func(req wire.Message) wire.Message

// Handle implements Handler.
func (f HandlerFunc) Handle(req wire.Message) wire.Message { return f(req) }

// ServerConfig tunes a Server.
type ServerConfig struct {
	// Concurrency bounds in-service requests per connection (default
	// DefaultConcurrency): each connection is served by at most that many
	// long-lived workers, started as load demands and stopped when the
	// connection closes. Per connection a Server therefore runs at most
	// 1 + Concurrency goroutines (the read loop and its workers) and pins
	// at most Concurrency + 1 request frames (one per worker, and one the
	// read loop holds while every worker is busy).
	Concurrency int
	// AfterWrite, when non-nil, runs after each response has been written
	// to the wire. Handlers use it to recycle response buffers (e.g. the
	// iod's read buffers) once the frame encoder is done with them. A
	// response handed to a server with AfterWrite belongs to the server
	// until the hook has run on it, so a handler must return a fresh or
	// pooled message there, never a shared one the hook would recycle.
	AfterWrite func(resp wire.Message)
}

// Server accepts connections and dispatches framed requests to a Handler.
// Requests on one connection are served concurrently by the connection's
// workers (at most Concurrency of them) and their responses carry the
// request's tag, so they may complete out of order. A frame that fails to
// decode, untagged ones included (wire.ErrUntagged), drops its
// connection. One Server may serve any number of listeners.
type Server struct {
	h   Handler
	cfg ServerConfig

	mu     sync.Mutex
	conns  map[transport.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// NewServer returns a server dispatching to h.
func NewServer(h Handler, cfg ServerConfig) *Server {
	if cfg.Concurrency <= 0 {
		cfg.Concurrency = DefaultConcurrency
	}
	return &Server{h: h, cfg: cfg, conns: make(map[transport.Conn]struct{})}
}

// Serve accepts connections on l until the listener closes. It returns nil
// on a clean listener close. Call it from its own goroutine; one server
// may serve several listeners concurrently.
func (s *Server) Serve(l transport.Listener) error {
	for {
		conn, err := l.Accept()
		if err != nil {
			if errors.Is(err, transport.ErrClosed) {
				return nil
			}
			return err
		}
		if !s.track(conn) {
			conn.Close()
			return nil
		}
		go s.serveConn(conn)
	}
}

// Close drops every open connection and makes subsequent accepts shut
// down. Listeners are owned by the caller and must be closed separately.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	conns := make([]transport.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
	return nil
}

// track registers a connection and reserves its waitgroup slot atomically
// with the closed check, so Close's wg.Wait can never race a late Add.
func (s *Server) track(conn transport.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.conns[conn] = struct{}{}
	s.wg.Add(1)
	return true
}

func (s *Server) untrack(conn transport.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
}

// request is one decoded frame on its way from a connection's read loop to
// a worker. payload backs msg's bulk fields and is released once the
// handler has consumed them.
type request struct {
	tag     uint64
	msg     wire.Message
	payload []byte
}

// serveConn reads frames until the connection fails and hands each to one
// of the connection's workers. A worker is started only when a frame finds
// every running one busy and fewer than Concurrency run; at the bound the
// read loop blocks until one frees, which is the connection's back-pressure.
func (s *Server) serveConn(conn transport.Conn) {
	defer s.wg.Done()
	defer s.untrack(conn)

	var (
		writeMu sync.Mutex
		workers sync.WaitGroup
		started int
		reqs    = make(chan request) // unbuffered: a send is a handoff
	)
	// LIFO: close the connection first so workers blocked writing to a
	// peer that stopped reading fail out, then stop them and wait.
	defer workers.Wait()
	defer close(reqs)
	defer conn.Close()
	for {
		// Zero-copy request decode: the message's payload fields alias
		// payload, released as soon as the handler has consumed them (the
		// Handler contract forbids retaining request bytes past Handle).
		tag, _, msg, payload, err := wire.ReadFrameAliased(conn)
		if err != nil {
			return
		}
		r := request{tag: tag, msg: msg, payload: payload}
		select {
		case reqs <- r:
			continue
		default:
		}
		if started < s.cfg.Concurrency {
			started++
			workers.Add(1)
			go s.work(conn, &writeMu, reqs, &workers)
		}
		reqs <- r
	}
}

// work serves one connection's requests until its read loop stops. A
// failed write or a handler's nil reply closes the connection, which ends
// the read loop and with it every worker.
func (s *Server) work(conn transport.Conn, writeMu *sync.Mutex, reqs <-chan request, workers *sync.WaitGroup) {
	defer workers.Done()
	for r := range reqs {
		resp := s.h.Handle(r.msg)
		wire.ReleasePayload(r.payload)
		if resp == nil {
			conn.Close() // protocol error: unblock the read loop
			continue
		}
		writeMu.Lock()
		err := wire.WriteTagged(conn, r.tag, resp)
		writeMu.Unlock()
		if err != nil {
			conn.Close()
			continue
		}
		if s.cfg.AfterWrite != nil {
			s.cfg.AfterWrite(resp)
		}
	}
}
