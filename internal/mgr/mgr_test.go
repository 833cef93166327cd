package mgr

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"testing/quick"

	"pvfscache/internal/metrics"
	"pvfscache/internal/rpc"
	"pvfscache/internal/transport"
	"pvfscache/internal/wire"
)

func newServer(t *testing.T) *Server {
	t.Helper()
	return New(4, metrics.NewRegistry())
}

func TestCreateAssignsDistinctIDs(t *testing.T) {
	s := newServer(t)
	seen := make(map[uint64]bool)
	for i := 0; i < 10; i++ {
		id, _, err := s.Create(fmt.Sprintf("f%d", i), 0, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if seen[uint64(id)] {
			t.Fatalf("duplicate id %d", id)
		}
		seen[uint64(id)] = true
	}
}

func TestCreateDefaults(t *testing.T) {
	s := newServer(t)
	_, meta, err := s.Create("f", 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if meta.PCount != 4 {
		t.Errorf("pcount = %d, want all 4 iods", meta.PCount)
	}
	if meta.SSize != DefaultStripSize {
		t.Errorf("ssize = %d", meta.SSize)
	}
	if meta.Size != 0 {
		t.Errorf("new file size = %d", meta.Size)
	}
}

func TestCreateClampsParameters(t *testing.T) {
	s := newServer(t)
	_, meta, err := s.Create("f", 9, 99, 8192)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Base != 9%4 {
		t.Errorf("base = %d", meta.Base)
	}
	if meta.PCount != 4 {
		t.Errorf("pcount = %d (should clamp to iod count)", meta.PCount)
	}
	if meta.SSize != 8192 {
		t.Errorf("ssize = %d", meta.SSize)
	}
}

func TestCreateDuplicateAndEmptyName(t *testing.T) {
	s := newServer(t)
	if _, _, err := s.Create("f", 0, 0, 0); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Create("f", 0, 0, 0); !errors.Is(err, wire.ErrExists) {
		t.Errorf("duplicate create: %v", err)
	}
	if _, _, err := s.Create("", 0, 0, 0); !errors.Is(err, wire.ErrBadRequest) {
		t.Errorf("empty name: %v", err)
	}
}

func TestOpenStatUnlink(t *testing.T) {
	s := newServer(t)
	id, _, err := s.Create("f", 1, 2, 4096)
	if err != nil {
		t.Fatal(err)
	}
	oid, meta, err := s.Open("f")
	if err != nil || oid != id {
		t.Fatalf("open: id=%d err=%v", oid, err)
	}
	if meta.PCount != 2 || meta.Base != 1 {
		t.Errorf("meta = %+v", meta)
	}
	if _, err := s.Stat(id); err != nil {
		t.Errorf("stat: %v", err)
	}
	if err := s.Unlink("f"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Open("f"); !errors.Is(err, wire.ErrNotFound) {
		t.Errorf("open after unlink: %v", err)
	}
	if _, err := s.Stat(id); !errors.Is(err, wire.ErrNotFound) {
		t.Errorf("stat after unlink: %v", err)
	}
	if err := s.Unlink("f"); !errors.Is(err, wire.ErrNotFound) {
		t.Errorf("double unlink: %v", err)
	}
}

func TestSetSizeMonotonic(t *testing.T) {
	s := newServer(t)
	id, _, _ := s.Create("f", 0, 0, 0)
	if err := s.SetSize(id, 100); err != nil {
		t.Fatal(err)
	}
	// Shrinking is ignored: concurrent extenders must not regress.
	if err := s.SetSize(id, 50); err != nil {
		t.Fatal(err)
	}
	meta, _ := s.Stat(id)
	if meta.Size != 100 {
		t.Errorf("size = %d, want 100", meta.Size)
	}
	if err := s.SetSize(id, -1); !errors.Is(err, wire.ErrBadRequest) {
		t.Errorf("negative size: %v", err)
	}
	if err := s.SetSize(999, 10); !errors.Is(err, wire.ErrNotFound) {
		t.Errorf("missing file: %v", err)
	}
}

func TestListSorted(t *testing.T) {
	s := newServer(t)
	for _, n := range []string{"zebra", "alpha", "mid"} {
		if _, _, err := s.Create(n, 0, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	got := s.List()
	want := []string{"alpha", "mid", "zebra"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("list = %v", got)
		}
	}
}

func TestConcurrentCreates(t *testing.T) {
	s := newServer(t)
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				if _, _, err := s.Create(fmt.Sprintf("g%d-f%d", g, i), 0, 0, 0); err != nil {
					errs <- err
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := len(s.List()); got != 64 {
		t.Errorf("files = %d, want 64", got)
	}
}

// Property: create→open round-trips metadata for arbitrary striping
// parameters.
func TestCreateOpenProperty(t *testing.T) {
	s := New(7, nil)
	i := 0
	f := func(base, pcount, ssize uint32) bool {
		i++
		name := fmt.Sprintf("p%d", i)
		id, cmeta, err := s.Create(name, base, pcount, ssize)
		if err != nil {
			return false
		}
		oid, ometa, err := s.Open(name)
		if err != nil || oid != id {
			return false
		}
		if ometa != cmeta {
			return false
		}
		// Invariants: base within range, pcount in [1, iods], ssize set.
		return ometa.Base < 7 && ometa.PCount >= 1 && ometa.PCount <= 7 && ometa.SSize > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestServeOverNetwork(t *testing.T) {
	net := transport.NewMem()
	l, err := net.Listen("mgr")
	if err != nil {
		t.Fatal(err)
	}
	s := newServer(t)
	go s.Serve(l)
	defer l.Close()

	c := rpc.NewClient(rpc.ClientConfig{Network: net, Addr: "mgr"})
	defer c.Close()

	call := func(req wire.Message) wire.Message {
		t.Helper()
		res := c.Call(req)
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		return res.Msg
	}

	cr := call(&wire.Create{Name: "net-file", SSize: 4096}).(*wire.CreateResp)
	if cr.Status != wire.StatusOK {
		t.Fatalf("create status %d", cr.Status)
	}
	or := call(&wire.Open{Name: "net-file"}).(*wire.OpenResp)
	if or.Status != wire.StatusOK || or.File != cr.File {
		t.Fatalf("open: %+v", or)
	}
	sm := call(&wire.SetSize{File: cr.File, Size: 12345}).(*wire.StatusMsg)
	if sm.Status != wire.StatusOK {
		t.Fatalf("setsize status %d", sm.Status)
	}
	sr := call(&wire.Stat{File: cr.File}).(*wire.StatResp)
	if sr.Meta.Size != 12345 {
		t.Fatalf("stat size %d", sr.Meta.Size)
	}
	lr := call(&wire.List{}).(*wire.ListResp)
	if len(lr.Names) != 1 || lr.Names[0] != "net-file" {
		t.Fatalf("list %v", lr.Names)
	}
	um := call(&wire.Unlink{Name: "net-file"}).(*wire.StatusMsg)
	if um.Status != wire.StatusOK {
		t.Fatalf("unlink status %d", um.Status)
	}
	or2 := call(&wire.Open{Name: "net-file"}).(*wire.OpenResp)
	if or2.Status != wire.StatusNotFound {
		t.Fatalf("open after unlink status %d", or2.Status)
	}
}

func TestServeDropsConnOnGarbage(t *testing.T) {
	net := transport.NewMem()
	l, err := net.Listen("mgr")
	if err != nil {
		t.Fatal(err)
	}
	s := newServer(t)
	go s.Serve(l)
	defer l.Close()

	// One pooled connection: the call after the drop redials.
	c := rpc.NewClient(rpc.ClientConfig{Network: net, Addr: "mgr", Conns: 1})
	defer c.Close()
	// An iod message is not served by mgr: connection closes.
	if res := c.Call(&wire.Read{File: 1, Length: 4}); res.Err == nil {
		t.Fatal("expected connection drop on non-mgr message")
	}
	// The server keeps serving new connections.
	if res := c.Call(&wire.List{}); res.Err != nil {
		t.Fatalf("server died after bad client: %v", res.Err)
	}
}

func TestNewPanicsOnZeroIODs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	New(0, nil)
}
