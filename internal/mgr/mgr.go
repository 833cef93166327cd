// Package mgr implements the PVFS metadata server. A single mgr instance
// runs per cluster; libpvfs sends it all metadata traffic (create, open,
// stat, unlink, size updates). Data traffic never touches mgr — and, as in
// the paper, the cache module never caches metadata: every metadata request
// goes to the server.
package mgr

import (
	"fmt"
	"log"
	"sort"
	"sync"

	"pvfscache/internal/blockio"
	"pvfscache/internal/membership"
	"pvfscache/internal/metrics"
	"pvfscache/internal/rpc"
	"pvfscache/internal/transport"
	"pvfscache/internal/wire"
)

// DefaultStripSize is the strip size assigned when a create request leaves
// it zero: 64 KB, PVFS's historical default.
const DefaultStripSize = 64 << 10

// Server is the metadata server. Construct with New, then Serve on a
// listener (live mode) or call the exported Create/Open/... methods
// directly (in-process mode: the simulator and tests skip the socket).
type Server struct {
	iodCount uint32
	reg      *metrics.Registry
	members  *membership.Tracker

	mu     sync.Mutex
	byName map[string]*entry
	byID   map[blockio.FileID]*entry
	nextID blockio.FileID

	srvMu   sync.Mutex
	servers []*rpc.Server
}

type entry struct {
	name string
	id   blockio.FileID
	meta wire.FileMeta
}

// New returns a metadata server for a cluster with iodCount data servers.
// reg may be nil, in which case a private registry is used.
func New(iodCount int, reg *metrics.Registry) *Server {
	if iodCount <= 0 {
		panic("mgr: iodCount must be positive")
	}
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	s := &Server{
		iodCount: uint32(iodCount),
		reg:      reg,
		byName:   make(map[string]*entry),
		byID:     make(map[blockio.FileID]*entry),
		nextID:   1,
	}
	s.members = membership.NewTracker(func(uint64) {
		s.reg.Counter("membership.epoch_bumps").Inc()
	})
	return s
}

// Members is the mgr's authoritative global-cache membership view: nodes
// Join/Leave it over the wire (see handle) and in-process callers may use
// it directly.
func (s *Server) Members() *membership.Tracker { return s.members }

// IODCount returns the number of data servers in the cluster.
func (s *Server) IODCount() int { return int(s.iodCount) }

// Create adds a file to the namespace. A zero PCount stripes over every
// iod; a zero SSize uses DefaultStripSize. Base is taken modulo the iod
// count. It fails with wire.ErrExists if the name is taken.
func (s *Server) Create(name string, base, pcount, ssize uint32) (blockio.FileID, wire.FileMeta, error) {
	if name == "" {
		return 0, wire.FileMeta{}, fmt.Errorf("%w: empty name", wire.ErrBadRequest)
	}
	if pcount == 0 || pcount > s.iodCount {
		pcount = s.iodCount
	}
	if ssize == 0 {
		ssize = DefaultStripSize
	}
	base %= s.iodCount

	s.mu.Lock()
	defer s.mu.Unlock()
	if _, taken := s.byName[name]; taken {
		return 0, wire.FileMeta{}, fmt.Errorf("create %q: %w", name, wire.ErrExists)
	}
	e := &entry{
		name: name,
		id:   s.nextID,
		meta: wire.FileMeta{Base: base, PCount: pcount, SSize: ssize},
	}
	s.nextID++
	s.byName[name] = e
	s.byID[e.id] = e
	s.reg.Counter("mgr.creates").Inc()
	return e.id, e.meta, nil
}

// Open resolves a name.
func (s *Server) Open(name string) (blockio.FileID, wire.FileMeta, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.byName[name]
	if !ok {
		return 0, wire.FileMeta{}, fmt.Errorf("open %q: %w", name, wire.ErrNotFound)
	}
	s.reg.Counter("mgr.opens").Inc()
	return e.id, e.meta, nil
}

// Stat returns current metadata for a file ID.
func (s *Server) Stat(id blockio.FileID) (wire.FileMeta, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.byID[id]
	if !ok {
		return wire.FileMeta{}, fmt.Errorf("stat %d: %w", id, wire.ErrNotFound)
	}
	s.reg.Counter("mgr.stats").Inc()
	return e.meta, nil
}

// Unlink removes a name.
func (s *Server) Unlink(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.byName[name]
	if !ok {
		return fmt.Errorf("unlink %q: %w", name, wire.ErrNotFound)
	}
	delete(s.byName, name)
	delete(s.byID, e.id)
	s.reg.Counter("mgr.unlinks").Inc()
	return nil
}

// SetSize grows the recorded size of a file. Shrinking is ignored: writes
// only ever extend, and concurrent extenders must not clobber each other.
func (s *Server) SetSize(id blockio.FileID, size int64) error {
	if size < 0 {
		return fmt.Errorf("setsize %d: %w", id, wire.ErrBadRequest)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.byID[id]
	if !ok {
		return fmt.Errorf("setsize %d: %w", id, wire.ErrNotFound)
	}
	if size > e.meta.Size {
		e.meta.Size = size
	}
	return nil
}

// List returns all file names, sorted.
func (s *Server) List() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	names := make([]string, 0, len(s.byName))
	for n := range s.byName {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Serve accepts connections on l and answers metadata requests until l is
// closed, dispatching through the shared rpc server core: tagged clients
// may have several metadata requests in flight per connection.
func (s *Server) Serve(l transport.Listener) error {
	srv := rpc.NewServer(rpc.HandlerFunc(func(msg wire.Message) wire.Message {
		resp := s.handle(msg)
		if resp == nil {
			log.Printf("mgr: unexpected message %v", msg.WireType())
		}
		return resp
	}), rpc.ServerConfig{})
	s.srvMu.Lock()
	s.servers = append(s.servers, srv)
	s.srvMu.Unlock()
	return srv.Serve(l)
}

// Close drops every connection Serve accepted; clients see their metadata
// calls fail. Listeners belong to the caller.
func (s *Server) Close() error {
	s.srvMu.Lock()
	servers := s.servers
	s.servers = nil
	s.srvMu.Unlock()
	for _, srv := range servers {
		srv.Close()
	}
	return nil
}

// handle dispatches one request message and returns the reply, or nil for
// message types mgr does not serve.
func (s *Server) handle(msg wire.Message) wire.Message {
	switch m := msg.(type) {
	case *wire.Create:
		id, meta, err := s.Create(m.Name, m.Base, m.PCount, m.SSize)
		return &wire.CreateResp{Status: wire.StatusFor(err), File: id, Meta: meta}
	case *wire.Open:
		id, meta, err := s.Open(m.Name)
		return &wire.OpenResp{Status: wire.StatusFor(err), File: id, Meta: meta}
	case *wire.Stat:
		meta, err := s.Stat(m.File)
		return &wire.StatResp{Status: wire.StatusFor(err), Meta: meta}
	case *wire.Unlink:
		return &wire.StatusMsg{Status: wire.StatusFor(s.Unlink(m.Name))}
	case *wire.SetSize:
		return &wire.StatusMsg{Status: wire.StatusFor(s.SetSize(m.File, m.Size))}
	case *wire.List:
		return &wire.ListResp{Status: wire.StatusOK, Names: s.List()}
	case *wire.ViewGet:
		return membership.ViewToResp(s.members.View())
	case *wire.JoinView:
		return membership.ViewToResp(s.members.Join(m.ID, m.Addr))
	case *wire.LeaveView:
		return membership.ViewToResp(s.members.Leave(m.ID))
	default:
		return nil
	}
}
