package mgr

import (
	"io"
	"maps"
	"slices"
	"testing"

	"pvfscache/internal/blockio"
	"pvfscache/internal/wire"
)

// Requests FuzzMgrHandle drives, by an operation's kind byte.
const (
	fuzzCreate = iota
	fuzzOpen
	fuzzStat
	fuzzUnlink
	fuzzSetSize
	fuzzList
	fuzzViewGet
	fuzzJoinView
	fuzzLeaveView
	fuzzKinds
)

// fuzzNames are the names a program usually picks, so its operations meet
// on the same files; a selector byte ≥ 0xC0 spells a raw name instead.
var fuzzNames = []string{"", "a", "b", "dir/c"}

// fuzzProg reads an operation's fields from the fuzzer's bytes; a program
// that runs out reads zeros.
type fuzzProg []byte

func (p *fuzzProg) byte() byte {
	if len(*p) == 0 {
		return 0
	}
	b := (*p)[0]
	*p = (*p)[1:]
	return b
}

// uint reads an n-byte big-endian integer.
func (p *fuzzProg) uint(n int) uint64 {
	var v uint64
	for range n {
		v = v<<8 | uint64(p.byte())
	}
	return v
}

func (p *fuzzProg) name() string {
	sel := p.byte()
	if sel < 0xC0 {
		return fuzzNames[int(sel)%len(fuzzNames)]
	}
	raw := make([]byte, sel&0x0F)
	for i := range raw {
		raw[i] = p.byte()
	}
	return string(raw)
}

// file picks an ID the mgr handed out (live or unlinked), or a raw one.
func (p *fuzzProg) file(given []blockio.FileID) blockio.FileID {
	sel := p.byte()
	if sel < 0xC0 && len(given) > 0 {
		return given[int(sel)%len(given)]
	}
	return blockio.FileID(p.uint(8))
}

// mgrModel is what the namespace and the membership view must hold after
// the requests so far.
type mgrModel struct {
	byName  map[string]blockio.FileID
	meta    map[blockio.FileID]wire.FileMeta // live files
	given   []blockio.FileID                 // every ID handed out
	members map[uint32]string
	epoch   uint64
}

// reply asserts the reply's type and that its status is known and that it
// frames, and returns it.
func reply[T wire.Message](t *testing.T, req, resp wire.Message) T {
	t.Helper()
	r, ok := resp.(T)
	if !ok {
		t.Fatalf("%v answered with %T", req.WireType(), resp)
	}
	var st wire.Status
	switch m := resp.(type) {
	case *wire.CreateResp:
		st = m.Status
	case *wire.OpenResp:
		st = m.Status
	case *wire.StatResp:
		st = m.Status
	case *wire.StatusMsg:
		st = m.Status
	case *wire.ListResp:
		st = m.Status
	case *wire.ViewResp:
		st = m.Status
	}
	if st > wire.StatusOverload {
		t.Fatalf("%v answered unknown status %d", req.WireType(), st)
	}
	if err := wire.WriteTagged(io.Discard, 1, resp); err != nil {
		t.Fatalf("%v reply does not frame: %v", req.WireType(), err)
	}
	return r
}

// FuzzMgrHandle drives the mgr's request handler with short sequences of
// Create, Open, Stat, Unlink, SetSize, List and the three membership
// requests, their fields chosen by the fuzzer, over a fresh mgr of four
// iods per input, and checks every reply against a map model: the reply
// type matches the request and its status is known; a created file opens
// to the same ID and meta and stats to that meta; an unlinked file is
// NotFound to Open and Stat; SetSize never shrinks and rejects a negative
// size; List is sorted and equals the model; the membership view and its
// epoch follow the joins and leaves.
func FuzzMgrHandle(f *testing.F) {
	f.Add([]byte{
		fuzzCreate, 1, 0, 0, 0, 5, 0, 0, 0, 2, 0, 0, 0x10, 0, // create "a" base 5 pcount 2 ssize 4 KB
		fuzzSetSize, 0, 0, 0, 0, 0, 0, 0, 0x10, 0, // grow to 4 KB
		fuzzSetSize, 0, 0, 0, 0, 0, 0, 0, 0, 0x10, // shrink is ignored
		fuzzList,
		fuzzUnlink, 1,
		fuzzStat, 0,
	})
	f.Add([]byte{
		fuzzCreate, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, // empty name
		fuzzCreate, 2, 0, 0, 0, 0, 0, 0, 0, 9, 0, 0, 0, 0, // pcount past the iods
		fuzzCreate, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, // duplicate
		fuzzSetSize, 0, 0x80, 0, 0, 0, 0, 0, 0, 0, // negative size
	})
	f.Add([]byte{
		fuzzJoinView, 0, 0, 0, 3, 1,
		fuzzJoinView, 0, 0, 0, 3, 1, // re-join: no epoch bump
		fuzzJoinView, 0, 0, 0, 3, 2, // re-address
		fuzzLeaveView, 0, 0, 0, 3,
		fuzzLeaveView, 0, 0, 0, 3, // absent: no bump
		fuzzViewGet,
	})
	f.Add([]byte{fuzzCreate, 0xC3, 'x', '/', 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, fuzzOpen, 0xC3, 'x', '/', 0})

	f.Fuzz(func(t *testing.T, prog []byte) {
		const iods = 4
		s := New(iods, nil)
		md := mgrModel{
			byName:  make(map[string]blockio.FileID),
			meta:    make(map[blockio.FileID]wire.FileMeta),
			members: make(map[uint32]string),
		}
		p := fuzzProg(prog)
		for op := 0; len(p) > 0 && op < 64; op++ {
			switch kind := p.byte() % fuzzKinds; kind {
			case fuzzCreate:
				req := &wire.Create{Name: p.name(), Base: uint32(p.uint(4)), PCount: uint32(p.uint(4)), SSize: uint32(p.uint(4))}
				r := reply[*wire.CreateResp](t, req, s.handle(req))
				_, exists := md.byName[req.Name]
				switch {
				case req.Name == "":
					if r.Status != wire.StatusBadRequest {
						t.Fatalf("create with an empty name: status %d", r.Status)
					}
					continue
				case exists:
					if r.Status != wire.StatusExists {
						t.Fatalf("create of existing %q: status %d", req.Name, r.Status)
					}
					continue
				case r.Status != wire.StatusOK:
					t.Fatalf("create %q: status %d", req.Name, r.Status)
				}
				want := wire.FileMeta{Base: req.Base % iods, PCount: req.PCount, SSize: req.SSize}
				if want.PCount == 0 || want.PCount > iods {
					want.PCount = iods
				}
				if want.SSize == 0 {
					want.SSize = DefaultStripSize
				}
				if r.Meta != want || r.File == 0 || slices.Contains(md.given, r.File) {
					t.Fatalf("create %+v answered file %d meta %+v; want a fresh ID and %+v", req, r.File, r.Meta, want)
				}
				md.byName[req.Name], md.meta[r.File] = r.File, r.Meta
				md.given = append(md.given, r.File)
				md.checkName(t, s, req.Name)
				md.checkID(t, s, r.File)
			case fuzzOpen:
				md.checkName(t, s, p.name())
			case fuzzStat:
				md.checkID(t, s, p.file(md.given))
			case fuzzUnlink:
				req := &wire.Unlink{Name: p.name()}
				r := reply[*wire.StatusMsg](t, req, s.handle(req))
				id, exists := md.byName[req.Name]
				if want := map[bool]wire.Status{true: wire.StatusOK, false: wire.StatusNotFound}[exists]; r.Status != want {
					t.Fatalf("unlink %q: status %d, want %d", req.Name, r.Status, want)
				}
				if exists {
					delete(md.byName, req.Name)
					delete(md.meta, id)
					md.checkName(t, s, req.Name)
					md.checkID(t, s, id)
				}
			case fuzzSetSize:
				req := &wire.SetSize{File: p.file(md.given), Size: int64(p.uint(8))}
				r := reply[*wire.StatusMsg](t, req, s.handle(req))
				meta, live := md.meta[req.File]
				want := wire.StatusOK
				switch {
				case req.Size < 0:
					want = wire.StatusBadRequest
				case !live:
					want = wire.StatusNotFound
				}
				if r.Status != want {
					t.Fatalf("setsize %d on file %d (live %v): status %d, want %d", req.Size, req.File, live, r.Status, want)
				}
				if want == wire.StatusOK {
					meta.Size = max(meta.Size, req.Size)
					md.meta[req.File] = meta
				}
				md.checkID(t, s, req.File)
			case fuzzList:
				req := &wire.List{}
				r := reply[*wire.ListResp](t, req, s.handle(req))
				want := slices.Sorted(maps.Keys(md.byName))
				if r.Status != wire.StatusOK || !slices.Equal(r.Names, want) {
					t.Fatalf("list: status %d names %q, want %q", r.Status, r.Names, want)
				}
			case fuzzViewGet:
				md.checkView(t, s, &wire.ViewGet{})
			case fuzzJoinView:
				req := &wire.JoinView{ID: uint32(p.uint(4)), Addr: p.name()}
				if old, ok := md.members[req.ID]; !ok || old != req.Addr {
					md.members[req.ID] = req.Addr
					md.epoch++
				}
				md.checkView(t, s, req)
			case fuzzLeaveView:
				req := &wire.LeaveView{ID: uint32(p.uint(4))}
				if _, ok := md.members[req.ID]; ok {
					delete(md.members, req.ID)
					md.epoch++
				}
				md.checkView(t, s, req)
			}
		}
	})
}

// checkName opens name and checks the reply against the model.
func (md *mgrModel) checkName(t *testing.T, s *Server, name string) {
	t.Helper()
	req := &wire.Open{Name: name}
	r := reply[*wire.OpenResp](t, req, s.handle(req))
	id, ok := md.byName[name]
	switch {
	case !ok && r.Status != wire.StatusNotFound:
		t.Fatalf("open of absent %q: status %d", name, r.Status)
	case ok && (r.Status != wire.StatusOK || r.File != id || r.Meta != md.meta[id]):
		t.Fatalf("open %q: status %d file %d meta %+v, want file %d meta %+v", name, r.Status, r.File, r.Meta, id, md.meta[id])
	}
}

// checkID stats id and checks the reply against the model.
func (md *mgrModel) checkID(t *testing.T, s *Server, id blockio.FileID) {
	t.Helper()
	req := &wire.Stat{File: id}
	r := reply[*wire.StatResp](t, req, s.handle(req))
	meta, ok := md.meta[id]
	switch {
	case !ok && r.Status != wire.StatusNotFound:
		t.Fatalf("stat of absent file %d: status %d", id, r.Status)
	case ok && (r.Status != wire.StatusOK || r.Meta != meta):
		t.Fatalf("stat %d: status %d meta %+v, want %+v", id, r.Status, r.Meta, meta)
	}
}

// checkView sends a membership request and checks the view it answers
// against the model's members and epoch.
func (md *mgrModel) checkView(t *testing.T, s *Server, req wire.Message) {
	t.Helper()
	r := reply[*wire.ViewResp](t, req, s.handle(req))
	ids := slices.Sorted(maps.Keys(md.members))
	addrs := make([]string, len(ids))
	for i, id := range ids {
		addrs[i] = md.members[id]
	}
	if r.Status != wire.StatusOK || r.Epoch != md.epoch || !slices.Equal(r.IDs, ids) || !slices.Equal(r.Addrs, addrs) {
		t.Fatalf("%v: view epoch %d ids %v addrs %q, want epoch %d ids %v addrs %q",
			req.WireType(), r.Epoch, r.IDs, r.Addrs, md.epoch, ids, addrs)
	}
}
