package pvfs

import (
	"math/rand"
	"testing"

	"pvfscache/internal/blockio"
	"pvfscache/internal/testseed"
	"pvfscache/internal/wire"
)

// planFile is a bare file over total iods, enough to drive opScratch.plan.
func planFile(m wire.FileMeta, total int) *File {
	c := &Client{cfg: Config{IODAddrs: make([]string, total)}, files: make(map[blockio.FileID]*File)}
	return &File{client: c, name: "plan", id: 1, meta: m}
}

// checkPlan asserts what every plan must satisfy: the pieces are PiecesFor's,
// grouped per iod in first-appearance order (the reference below is the map
// and order slice the scratch replaced); sink[i] is piece i's region of p;
// the requests tile the pieces in order, each on one iod and within
// vectorBudget; and the grouping state is back to zero.
func checkPlan(t *testing.T, s *opScratch, f *File, p []byte, off, length int64, vectored bool) {
	t.Helper()
	flat, err := PiecesFor(f.id, f.meta, len(f.client.cfg.IODAddrs), off, length)
	if err != nil {
		t.Fatal(err)
	}
	groups := make(map[int][]Piece)
	var order []int
	for _, pc := range flat {
		for pc.Ext.Length > vectorBudget { // an oversized strip splits in place
			head := pc
			head.Ext.Length = vectorBudget
			if _, ok := groups[pc.IOD]; !ok {
				order = append(order, pc.IOD)
			}
			groups[pc.IOD] = append(groups[pc.IOD], head)
			pc.Ext.Offset += vectorBudget
			pc.Ext.Length -= vectorBudget
			pc.Pos += vectorBudget
		}
		if _, ok := groups[pc.IOD]; !ok {
			order = append(order, pc.IOD)
		}
		groups[pc.IOD] = append(groups[pc.IOD], pc)
	}
	var want []Piece
	for _, iod := range order {
		want = append(want, groups[iod]...)
	}
	if len(s.pieces) != len(want) || len(s.sink) != len(want) {
		t.Fatalf("plan has %d pieces and %d sinks, want %d", len(s.pieces), len(s.sink), len(want))
	}
	for i, pc := range want {
		if s.pieces[i] != pc {
			t.Fatalf("piece %d = %+v, want %+v", i, s.pieces[i], pc)
		}
		if int64(len(s.sink[i])) != pc.Ext.Length || &s.sink[i][0] != &p[pc.Pos] {
			t.Fatalf("sink %d is not p[%d:%d]", i, pc.Pos, pc.Pos+pc.Ext.Length)
		}
	}
	next := 0
	for i, r := range s.reqs {
		if r.lo != next || r.hi <= r.lo {
			t.Fatalf("request %d covers [%d,%d), want it to start at %d", i, r.lo, r.hi, next)
		}
		next = r.hi
		var bytes int64
		for _, pc := range s.pieces[r.lo:r.hi] {
			if pc.IOD != s.pieces[r.lo].IOD {
				t.Fatalf("request %d mixes iods", i)
			}
			bytes += pc.Ext.Length
		}
		if bytes > vectorBudget {
			t.Fatalf("request %d carries %d bytes, budget %d", i, bytes, vectorBudget)
		}
		if !vectored && r.hi-r.lo != 1 {
			t.Fatalf("request %d of an unvectored plan carries %d pieces", i, r.hi-r.lo)
		}
		// Greedy chunks: a vectored request ends only at its iod's last
		// piece or where the next piece would overflow the budget.
		if vectored && r.hi < len(s.pieces) && s.pieces[r.hi].IOD == s.pieces[r.lo].IOD &&
			bytes+s.pieces[r.hi].Ext.Length <= vectorBudget {
			t.Fatalf("request %d stops early: piece %d would have fit", i, r.hi)
		}
	}
	if next != len(want) {
		t.Fatalf("requests cover %d of %d pieces", next, len(want))
	}
	if len(s.order) != 0 {
		t.Fatalf("order not reset: %v", s.order)
	}
	for iod, n := range s.next {
		if n != 0 {
			t.Fatalf("next[%d] = %d after plan", iod, n)
		}
	}
}

// TestPlanGroupsLikeReference drives one scratch through random geometries
// and ranges — PCount above, at and below the iod count, sub-strip to
// many-cycle ranges, both plan kinds — re-using it as a client does.
func TestPlanGroupsLikeReference(t *testing.T) {
	rng := rand.New(rand.NewSource(testseed.Base(t)))
	var s opScratch
	p := make([]byte, 1<<20)
	for i := 0; i < 2000; i++ {
		total := 1 + rng.Intn(5)
		m := wire.FileMeta{
			Base:   uint32(rng.Intn(8)),
			PCount: uint32(1 + rng.Intn(7)),
			SSize:  uint32(1) << (9 + rng.Intn(8)), // 512 B .. 64 KB
		}
		f := planFile(m, total)
		off := rng.Int63n(1 << 22)
		length := 1 + rng.Int63n(int64(len(p)))
		if rng.Intn(4) == 0 {
			length = 1 + rng.Int63n(int64(m.SSize)) // the benchmark's shape: one or two pieces
		}
		vectored := rng.Intn(2) == 0
		if err := s.plan(f, p, off, length, vectored); err != nil {
			t.Fatal(err)
		}
		checkPlan(t, &s, f, p, off, length, vectored)
		s.finish(nil)
		for _, b := range s.sink[:cap(s.sink)] {
			if b != nil {
				t.Fatal("finish left a sink entry pointing into the caller's buffer")
			}
		}
		for _, r := range s.reqs[:cap(s.reqs)] {
			if r.write.Data != nil || r.sync.Data != nil || r.readv.Exts != nil {
				t.Fatal("finish left a request struct pointing at the operation's memory")
			}
		}
	}
}

// TestPlanChunksAGroupWithinBudget: one iod's pieces must decompose into
// requests the iod can answer (extent totals within vectorBudget), so
// arbitrarily large reads stay servable. 40 pieces of 1 MB against a
// ~31 MB budget: must split, nothing lost, order preserved.
func TestPlanChunksAGroupWithinBudget(t *testing.T) {
	var s opScratch
	f := planFile(meta(0, 1, 1<<20), 2)
	p := make([]byte, 40<<20)
	if err := s.plan(f, p, 0, int64(len(p)), true); err != nil {
		t.Fatal(err)
	}
	checkPlan(t, &s, f, p, 0, int64(len(p)), true)
	if len(s.pieces) != 40 || len(s.reqs) < 2 {
		t.Fatalf("%d pieces in %d requests, want 40 in at least 2", len(s.pieces), len(s.reqs))
	}
}

// TestPlanSplitsOversizedStrips: a strip larger than the vector budget
// (SSize is a u32 from the wire) must be subdivided so every request stays
// within what an iod will serve — on the write side too.
func TestPlanSplitsOversizedStrips(t *testing.T) {
	const ssize = vectorBudget*2 + 100
	f := planFile(meta(1, 2, ssize), 3)
	p := make([]byte, ssize+4096)
	for _, vectored := range []bool{true, false} {
		var s opScratch
		if err := s.plan(f, p, 0, int64(len(p)), vectored); err != nil {
			t.Fatal(err)
		}
		checkPlan(t, &s, f, p, 0, int64(len(p)), vectored)
		if len(s.pieces) != 4 || len(s.reqs) != 4 { // budget + budget + 100 on iod 1, the tail on iod 2
			t.Fatalf("vectored=%v: %d pieces in %d requests, want 4 in 4", vectored, len(s.pieces), len(s.reqs))
		}
	}
}
