package membership

import (
	"testing"

	"pvfscache/internal/blockio"
)

func testKeys(n int) []blockio.BlockKey {
	keys := make([]blockio.BlockKey, 0, n)
	for f := 1; len(keys) < n; f++ {
		for i := 0; i < 64 && len(keys) < n; i++ {
			keys = append(keys, blockio.BlockKey{File: blockio.FileID(f), Index: int64(i)})
		}
	}
	return keys
}

// staticView builds a fixed epoch-1 view from an ordered address list;
// member i gets ID i.
func staticView(addrs []string) View {
	v := View{Epoch: 1, Members: make([]Member, len(addrs))}
	for i, a := range addrs {
		v.Members[i] = Member{ID: uint32(i), Addr: a}
	}
	return v
}

func addrs(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = "peer"
	}
	return out
}

func TestReplicaSetShape(t *testing.T) {
	r := NewRing(staticView(addrs(5)), 64, 3)
	var buf [8]int
	for _, key := range testKeys(2000) {
		set := r.ReplicaSet(key, buf[:0])
		if len(set) != 3 {
			t.Fatalf("key %v: got %d replicas, want 3", key, len(set))
		}
		seen := map[int]bool{}
		for _, m := range set {
			if m < 0 || m >= 5 {
				t.Fatalf("key %v: member %d out of range", key, m)
			}
			if seen[m] {
				t.Fatalf("key %v: duplicate member %d in %v", key, m, set)
			}
			seen[m] = true
		}
		if p := r.Primary(key); p != set[0] {
			t.Fatalf("key %v: Primary=%d but ReplicaSet[0]=%d", key, p, set[0])
		}
	}
}

func TestReplicaSetCappedByMembers(t *testing.T) {
	r := NewRing(staticView(addrs(2)), 32, 3)
	var buf [8]int
	set := r.ReplicaSet(blockio.BlockKey{File: 1, Index: 1}, buf[:0])
	if len(set) != 2 {
		t.Fatalf("2-member ring with replicas=3: got %d replicas, want 2", len(set))
	}
	empty := NewRing(View{}, 32, 2)
	if set := empty.ReplicaSet(blockio.BlockKey{File: 1}, buf[:0]); len(set) != 0 {
		t.Fatalf("empty ring returned replicas %v", set)
	}
	if p := empty.Primary(blockio.BlockKey{File: 1}); p != -1 {
		t.Fatalf("empty ring Primary = %d, want -1", p)
	}
}

// TestBalance checks the vnode count keeps primary load reasonably even:
// no member should own more than ~2x its fair share.
func TestBalance(t *testing.T) {
	const members, keys = 4, 8000
	r := NewRing(staticView(addrs(members)), DefaultVNodes, 1)
	counts := make([]int, members)
	for _, key := range testKeys(keys) {
		counts[r.Primary(key)]++
	}
	fair := keys / members
	for m, c := range counts {
		if c > 2*fair || c < fair/3 {
			t.Fatalf("member %d owns %d of %d keys (fair share %d): %v", m, c, keys, fair, counts)
		}
	}
}

// TestMinimalDisruption: adding one member to an n-member ring must move
// roughly 1/(n+1) of the keyspace and never remap a key between two
// surviving members — the consistent-hashing property the modulo ring
// lacked.
func TestMinimalDisruption(t *testing.T) {
	const keys = 8000
	before := NewRing(staticView(addrs(4)), DefaultVNodes, 1)
	after := NewRing(staticView(addrs(5)), DefaultVNodes, 1)
	moved := 0
	for _, key := range testKeys(keys) {
		a, b := before.Primary(key), after.Primary(key)
		if a == b {
			continue
		}
		if b != 4 {
			t.Fatalf("key %v moved between surviving members %d -> %d", key, a, b)
		}
		moved++
	}
	// Expect ~keys/5 moved; allow a wide band for hash variance.
	if moved < keys/10 || moved > keys/2 {
		t.Fatalf("adding 5th member moved %d of %d keys, want ~%d", moved, keys, keys/5)
	}
}

func TestRingDeterminism(t *testing.T) {
	v := staticView([]string{"a", "b", "c"})
	r1 := NewRing(v, 64, 2)
	r2 := NewRing(v, 64, 2)
	var b1, b2 [4]int
	for _, key := range testKeys(500) {
		s1 := r1.ReplicaSet(key, b1[:0])
		s2 := r2.ReplicaSet(key, b2[:0])
		if len(s1) != len(s2) {
			t.Fatalf("key %v: %v vs %v", key, s1, s2)
		}
		for i := range s1 {
			if s1[i] != s2[i] {
				t.Fatalf("key %v: %v vs %v", key, s1, s2)
			}
		}
	}
}

func TestTrackerEpochs(t *testing.T) {
	var bumps int
	tr := NewTracker(func(uint64) { bumps++ })
	if v := tr.View(); v.Epoch != 0 || len(v.Members) != 0 {
		t.Fatalf("fresh tracker view = %+v", v)
	}
	v := tr.Join(1, "a")
	if v.Epoch != 1 || len(v.Members) != 1 {
		t.Fatalf("after first join: %+v", v)
	}
	// Idempotent re-join: no bump.
	if v = tr.Join(1, "a"); v.Epoch != 1 {
		t.Fatalf("idempotent join bumped epoch: %+v", v)
	}
	// Re-address: bump.
	if v = tr.Join(1, "a2"); v.Epoch != 2 {
		t.Fatalf("re-address did not bump: %+v", v)
	}
	v = tr.Join(0, "z")
	if v.Epoch != 3 || len(v.Members) != 2 || v.Members[0].ID != 0 || v.Members[1].ID != 1 {
		t.Fatalf("members not sorted by ID: %+v", v)
	}
	if v = tr.Leave(1); v.Epoch != 4 || len(v.Members) != 1 {
		t.Fatalf("after leave: %+v", v)
	}
	// Absent leave: no bump.
	if v = tr.Leave(7); v.Epoch != 4 {
		t.Fatalf("absent leave bumped: %+v", v)
	}
	if bumps != 4 {
		t.Fatalf("onBump fired %d times, want 4", bumps)
	}
}

func TestViewRespRoundTrip(t *testing.T) {
	tr := NewTracker(nil)
	tr.Join(3, "c")
	tr.Join(1, "a")
	v := tr.View()
	got := ViewFromResp(ViewToResp(v))
	if got.Epoch != v.Epoch || len(got.Members) != len(v.Members) {
		t.Fatalf("round trip: %+v vs %+v", got, v)
	}
	for i := range v.Members {
		if got.Members[i] != v.Members[i] {
			t.Fatalf("member %d: %+v vs %+v", i, got.Members[i], v.Members[i])
		}
	}
}
