// Package membership is the cluster's elastic-membership core: who is in
// the global-cache ring, which epoch of the view a node believes in, and
// how blocks map onto members when the ring grows or shrinks.
//
// The seed fixed the ring at boot and mapped blocks with a bare
// `Mix % len(peers)` — adding or removing one node remapped nearly every
// block and a dead peer stayed a routing target forever. This package
// replaces that with:
//
//   - View: an epoch-stamped member list. The mgr owns the authoritative
//     view (Tracker) and bumps the epoch on every join/leave; nodes carry
//     the epoch on peer RPCs so disagreement is detected, not silently
//     acted on (wire.StatusStaleEpoch → refetch → retry).
//   - Ring: a consistent-hash ring with virtual nodes and N-way
//     replication. A membership change moves only ~1/n of the keyspace,
//     and every key has an ordered replica set so reads can fail over
//     when the primary is down.
//
// Hash-range discipline: blockio.BlockKey.Mix dedicates its low 32 bits
// to global-cache placement and its high 32 bits to the buffer manager's
// shard choice. The ring positions keys with the low half only, and the
// replica set is the clockwise successor walk from that point — so
// replica choice stays inside the home bit range and conditioning on a
// block's home (or any of its replicas) cannot collapse the shard spread.
package membership

import (
	"sort"
	"sync"

	"pvfscache/internal/blockio"
)

// The global cache's ring geometry. 64 virtual nodes keep the per-member
// load share within a few percent of uniform at small cluster sizes;
// 2 replicas give every block one failover target without multiplying
// push traffic (pushes still go to the primary only).
const (
	DefaultVNodes   = 64
	DefaultReplicas = 2
)

// Member is one global-cache peer: a stable ID and the address of its
// peer-cache service.
type Member struct {
	ID   uint32
	Addr string
}

// View is an epoch-stamped snapshot of the membership. Members are sorted
// by ID. Epoch 0 means "no view yet"; every change bumps the epoch, so two
// nodes holding the same epoch hold the same member list.
type View struct {
	Epoch   uint64
	Members []Member
}

// Clone returns a deep copy (the member slice is private to the copy).
func (v View) Clone() View {
	out := View{Epoch: v.Epoch, Members: make([]Member, len(v.Members))}
	copy(out.Members, v.Members)
	return out
}

// mix64 is splitmix64's finalizer — the same avalanche the rest of the
// system hashes with (blockio.BlockKey.Mix, buffer shard routing).
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// pointHash places virtual node j of member id on the ring. Only the low
// 32 bits are used: ring positions live in the same bit range as the keys
// they serve (see the package comment's hash-range discipline).
func pointHash(id uint32, j int) uint32 {
	return uint32(mix64(uint64(id)*0x9E3779B97F4A7C15 ^ uint64(j)*0xD1B54A32D192ED03))
}

// ringPoint is one virtual node: a position and the member it belongs to.
type ringPoint struct {
	hash   uint32
	member int32 // index into view.Members
}

// Ring maps blocks onto a view's members by consistent hashing. A Ring is
// immutable once built — a new view builds a new Ring — so lookups need no
// lock and a node swaps rings atomically on epoch change.
type Ring struct {
	view     View
	replicas int
	points   []ringPoint // sorted by hash
}

// NewRing builds the ring for a view with vnodes points per member and
// replica sets of replicas members, capped at the member count.
func NewRing(v View, vnodes, replicas int) *Ring {
	r := &Ring{view: v.Clone(), replicas: replicas}
	r.points = make([]ringPoint, 0, len(v.Members)*vnodes)
	for mi, m := range r.view.Members {
		for j := 0; j < vnodes; j++ {
			r.points = append(r.points, ringPoint{hash: pointHash(m.ID, j), member: int32(mi)})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		a, b := r.points[i], r.points[j]
		if a.hash != b.hash {
			return a.hash < b.hash
		}
		// Ties break by member so the sort (and therefore the mapping) is
		// deterministic across nodes.
		return a.member < b.member
	})
	return r
}

// Epoch returns the view's epoch.
func (r *Ring) Epoch() uint64 { return r.view.Epoch }

// Members returns the view's member list. The caller must not mutate it.
func (r *Ring) Members() []Member { return r.view.Members }

// ReplicaSet appends the ordered replica set for key to dst and returns
// it: up to Replicas distinct member indices, primary first, chosen by the
// clockwise successor walk from the key's ring position. Empty when the
// ring has no members.
func (r *Ring) ReplicaSet(key blockio.BlockKey, dst []int) []int {
	return r.replicaPrefix(key, dst[:0], r.replicas)
}

// Primary returns the index of the key's primary member, or -1 on an
// empty ring.
func (r *Ring) Primary(key blockio.BlockKey) int {
	var buf [1]int
	set := r.replicaPrefix(key, buf[:0], 1)
	if len(set) == 0 {
		return -1
	}
	return set[0]
}

// replicaPrefix is ReplicaSet bounded to the first want members.
func (r *Ring) replicaPrefix(key blockio.BlockKey, dst []int, want int) []int {
	n := len(r.points)
	if n == 0 {
		return dst
	}
	h := uint32(key.Mix()) // low 32 bits: the home bit range
	// First point at or after h, wrapping.
	i := sort.Search(n, func(i int) bool { return r.points[i].hash >= h })
	if i == n {
		i = 0
	}
	for scanned := 0; scanned < n && len(dst) < want; scanned++ {
		mi := int(r.points[i].member)
		if !containsInt(dst, mi) {
			dst = append(dst, mi)
		}
		i++
		if i == n {
			i = 0
		}
	}
	return dst
}

func containsInt(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

// Tracker is the mgr-side membership authority: a member table and the
// epoch counter. Every effective change (a new member, a changed address,
// a departure) bumps the epoch; idempotent re-joins do not, so a node
// re-registering after a reconnect cannot churn the cluster's view.
type Tracker struct {
	mu      sync.Mutex
	epoch   uint64
	members map[uint32]string
	onBump  func(epoch uint64)
}

// NewTracker returns an empty tracker (epoch 0). onBump, if non-nil, is
// called after every epoch bump with the new epoch — the mgr wires it to
// the membership.epoch_bumps counter.
func NewTracker(onBump func(epoch uint64)) *Tracker {
	return &Tracker{members: make(map[uint32]string), onBump: onBump}
}

// Join adds (or re-addresses) a member and returns the resulting view.
func (t *Tracker) Join(id uint32, addr string) View {
	t.mu.Lock()
	if old, ok := t.members[id]; !ok || old != addr {
		t.members[id] = addr
		t.epoch++
		t.bumpLocked()
	}
	v := t.viewLocked()
	t.mu.Unlock()
	return v
}

// Leave removes a member and returns the resulting view. Removing an
// absent member is a no-op (no bump).
func (t *Tracker) Leave(id uint32) View {
	t.mu.Lock()
	if _, ok := t.members[id]; ok {
		delete(t.members, id)
		t.epoch++
		t.bumpLocked()
	}
	v := t.viewLocked()
	t.mu.Unlock()
	return v
}

// View returns the current view.
func (t *Tracker) View() View {
	t.mu.Lock()
	v := t.viewLocked()
	t.mu.Unlock()
	return v
}

func (t *Tracker) bumpLocked() {
	if t.onBump != nil {
		t.onBump(t.epoch)
	}
}

func (t *Tracker) viewLocked() View {
	v := View{Epoch: t.epoch, Members: make([]Member, 0, len(t.members))}
	for id, addr := range t.members {
		v.Members = append(v.Members, Member{ID: id, Addr: addr})
	}
	sort.Slice(v.Members, func(i, j int) bool { return v.Members[i].ID < v.Members[j].ID })
	return v
}
