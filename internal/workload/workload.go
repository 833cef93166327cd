// Package workload generates mixed application workloads from a single
// seed and records them as compact, replayable traces: thousands of
// clients, seeded faults, one oracle.
//
// A Scenario turns Params into a Spec: the files to create, the node each
// client runs on, and one deterministic op stream per client. The live
// cluster executes it: internal/chaos drives every op through one
// executor, concurrently under faults or serially from a trace, and
// judges every run with the consistency oracle.
//
// Two properties make the streams verifiable and replayable:
//
//   - Write ownership: every client's writes stay inside its own region
//     of each file, so a byte's expected value is always well defined
//     even with hundreds of clients running concurrently. Reads may roam
//     (the zipfian scenario's whole-file hot spot), and cross-node reads
//     of foreign regions only happen after a flush + barrier, which is
//     what the system's weak inter-node coherence actually guarantees.
//   - Determinism: the op streams are a pure function of (scenario,
//     Params), and write payloads are a pure function of (seed, file,
//     offset, seq) via Fill. A trace therefore only needs the op
//     parameters — never the data — to replay byte-identically.
package workload

import (
	"fmt"
	"math/rand"
	"sort"
)

// Kind is the type of one application-level operation.
type Kind uint8

// Op kinds. Barrier is a full rendezvous of every client in the run —
// generators use it to order phases (produce before consume) without
// relying on wall-clock timing; replay executes ops in recorded sequence
// order, where a barrier is naturally a no-op.
const (
	KindRead Kind = iota
	KindWrite
	KindFlush   // drain this client's node cache (Module.FlushAll)
	KindBarrier // rendezvous: no client proceeds until all arrive
	KindCreate  // metadata: create a scratch file
	KindUnlink  // metadata: unlink a scratch file
	KindList    // metadata: list the namespace
	kindCount
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindRead:
		return "read"
	case KindWrite:
		return "write"
	case KindFlush:
		return "flush"
	case KindBarrier:
		return "barrier"
	case KindCreate:
		return "create"
	case KindUnlink:
		return "unlink"
	case KindList:
		return "list"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Op is one operation of one client's stream. Seq is zero at generation
// time; the runner stamps the global issue order into it, and that order
// is what a trace records and a replay re-executes.
type Op struct {
	Seq    uint64
	Client int
	Kind   Kind
	File   int   // index into Spec.Files (reads/writes); scratch id (create/unlink)
	Off    int64 // byte offset (reads/writes)
	Len    int64 // byte length (reads/writes)
}

// FileSpec describes one file a scenario touches.
type FileSpec struct {
	Name   string
	Size   int64
	SSize  int64 // stripe size (0 = cluster default)
	PCount int   // stripe width (0 = all iods)
}

// Spec is a fully generated workload: files, client placement, and one op
// stream per client. Every client has the same number of barriers, in the
// same phase order, so rendezvous cannot deadlock.
type Spec struct {
	Scenario  string
	Params    Params
	Files     []FileSpec
	Placement []int  // node index per client
	Ops       [][]Op // per client, in program order
}

// TotalOps counts the ops across every client.
func (s *Spec) TotalOps() int {
	n := 0
	for _, ops := range s.Ops {
		n += len(ops)
	}
	return n
}

// Params sizes a scenario. The zero value is filled with defaults by
// Validate; every generator calls it.
type Params struct {
	// Clients is the number of application clients (default 8). Scenarios
	// place them on nodes round-robin unless they need a fixed placement
	// (zipfian keeps everyone on node 0 so the shared cache is the
	// contention point).
	Clients int
	// Nodes is the number of client nodes available (default 2).
	Nodes int
	// OpsPerClient bounds each client's stream length (default 64).
	OpsPerClient int
	// FileSize is each data file's size in bytes (default 1 MB). Client
	// write regions are FileSize/Clients, so FileSize must comfortably
	// exceed Clients.
	FileSize int64
	// MaxIO caps a single read/write length (default 16 KB).
	MaxIO int64
	// Seed drives every random choice; equal seeds give equal streams.
	Seed int64
}

// Validate fills defaults and rejects inconsistent parameters.
func (p *Params) Validate() error {
	if p.Clients <= 0 {
		p.Clients = 8
	}
	if p.Nodes <= 0 {
		p.Nodes = 2
	}
	if p.OpsPerClient <= 0 {
		p.OpsPerClient = 64
	}
	if p.FileSize <= 0 {
		p.FileSize = 1 << 20
	}
	if p.MaxIO <= 0 {
		p.MaxIO = 16 << 10
	}
	if p.FileSize/int64(p.Clients) < 1 {
		return fmt.Errorf("workload: FileSize %d too small for %d clients", p.FileSize, p.Clients)
	}
	return nil
}

// region returns client c's owned byte range [start, end) of a file.
// Writes never leave it; the last client absorbs the rounding remainder.
func (p Params) region(c int) (start, end int64) {
	size := p.FileSize / int64(p.Clients)
	start = int64(c) * size
	end = start + size
	if c == p.Clients-1 {
		end = p.FileSize
	}
	return start, end
}

// Scenario is one named workload shape.
type Scenario struct {
	Name string
	Desc string
	// Generate builds the deterministic Spec for the given parameters.
	Generate func(p Params) (*Spec, error)
}

// Scenarios lists every built-in scenario in stable order.
func Scenarios() []Scenario {
	return []Scenario{
		{"sequential", "each client writes then re-reads its own region in order", genSequential},
		{"strided", "interleaved strided passes over each client's region", genStrided},
		{"zipfian", "hot-spot zipf reads over the whole file, writes in own regions, one shared node cache", genZipfian},
		{"prodcons", "producers write and flush, a barrier, then consumers on another node read", genProdCons},
		{"metadata", "namespace create/list/unlink storms interleaved with small data ops", genMetadata},
		{"antagonist", "one client saturates the shared node cache with max-size writes while the rest run small ops", genAntagonist},
	}
}

// Lookup finds a scenario by name.
func Lookup(name string) (Scenario, error) {
	for _, s := range Scenarios() {
		if s.Name == name {
			return s, nil
		}
	}
	var known []string
	for _, s := range Scenarios() {
		known = append(known, s.Name)
	}
	sort.Strings(known)
	return Scenario{}, fmt.Errorf("workload: unknown scenario %q (have %v)", name, known)
}

// Fill writes the deterministic payload of a write op into dst: a pure
// function of (seed, file, off, seq), so the oracle and a replay can both
// regenerate the bytes from the op record alone.
func Fill(dst []byte, seed int64, file int, off int64, seq uint64) {
	x := uint64(seed)*0x9E3779B97F4A7C15 ^
		uint64(file+1)*0xBF58476D1CE4E5B9 ^
		uint64(off+1)*0x94D049BB133111EB ^
		(seq+1)*0xD6E8FEB86659FD93
	for i := range dst {
		// xorshift64: cheap, full-period, and stable across platforms.
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		dst[i] = byte(x)
	}
}

// roundRobin places client c on a node.
func roundRobin(p Params, c int) int { return c % p.Nodes }

// --- scenario generators ---

// genSequential: phase 1 writes the client's region start-to-end in MaxIO
// chunks, then a flush and a barrier; phase 2 reads it back in the same
// order. The re-read phase is a pure cache-hit workload on a warm cache
// and a miss workload after chaos evicted or invalidated it.
func genSequential(p Params) (*Spec, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	spec := newSpec("sequential", p, []FileSpec{{Name: "wl/seq.dat", Size: p.FileSize}})
	for c := 0; c < p.Clients; c++ {
		spec.Placement[c] = roundRobin(p, c)
		start, end := p.region(c)
		budget := p.OpsPerClient
		half := budget / 2
		spec.Ops[c] = appendPass(spec.Ops[c], c, KindWrite, 0, start, end, p.MaxIO, half)
		spec.Ops[c] = append(spec.Ops[c],
			Op{Client: c, Kind: KindFlush},
			Op{Client: c, Kind: KindBarrier})
		spec.Ops[c] = appendPass(spec.Ops[c], c, KindRead, 0, start, end, p.MaxIO, budget-half-2)
	}
	return spec, nil
}

// genStrided: like sequential but each pass visits every stride-th chunk,
// then shifts by one chunk — the access shape the strided streak detector
// and the vectored miss engine were built for.
func genStrided(p Params) (*Spec, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	spec := newSpec("strided", p, []FileSpec{{Name: "wl/strided.dat", Size: p.FileSize}})
	const stride = 4
	for c := 0; c < p.Clients; c++ {
		spec.Placement[c] = roundRobin(p, c)
		start, end := p.region(c)
		chunk := chunkFor(start, end, p.MaxIO)
		budget := p.OpsPerClient
		half := budget / 2
		emit := func(kind Kind, n int) {
			phase := 0
			off := start
			for ; n > 0; n-- {
				spec.Ops[c] = append(spec.Ops[c], clampedOp(c, kind, 0, off, chunk, end))
				off += stride * chunk
				if off >= end {
					phase = (phase + 1) % stride
					off = start + int64(phase)*chunk
				}
			}
		}
		emit(KindWrite, half)
		spec.Ops[c] = append(spec.Ops[c],
			Op{Client: c, Kind: KindFlush},
			Op{Client: c, Kind: KindBarrier})
		emit(KindRead, budget-half-2)
	}
	return spec, nil
}

// genZipfian: every client on node 0, so the node's shared cache is the
// contended resource. Phase 1 seeds each client's region; phase 2 mixes
// zipf-distributed hot-spot reads over the whole file (foreign regions
// included — the shared cache keeps that coherent on one node) with
// writes folded into the client's own region.
func genZipfian(p Params) (*Spec, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	spec := newSpec("zipfian", p, []FileSpec{{Name: "wl/zipf.dat", Size: p.FileSize}})
	nChunks := p.FileSize / p.MaxIO
	if nChunks < 1 {
		nChunks = 1
	}
	for c := 0; c < p.Clients; c++ {
		spec.Placement[c] = 0 // one shared cache: the point of the scenario
		start, end := p.region(c)
		budget := p.OpsPerClient
		warm := budget / 4
		spec.Ops[c] = appendPass(spec.Ops[c], c, KindWrite, 0, start, end, p.MaxIO, warm)
		spec.Ops[c] = append(spec.Ops[c],
			Op{Client: c, Kind: KindFlush},
			Op{Client: c, Kind: KindBarrier})
		rng := rand.New(rand.NewSource(p.Seed ^ int64(c)*0x5DEECE66D))
		zipf := rand.NewZipf(rng, 1.2, 1, uint64(nChunks-1))
		// Rotate the hot head per seed so different seeds hammer
		// different blocks.
		rot := rng.Int63n(nChunks)
		for n := budget - warm - 2; n > 0; n-- {
			chunk := (int64(zipf.Uint64()) + rot) % nChunks
			off := chunk * p.MaxIO
			length := p.MaxIO
			if off+length > p.FileSize {
				length = p.FileSize - off
			}
			if rng.Float64() < 0.3 {
				// Fold the hot chunk into the client's own region.
				span := end - start
				woff := start + off%max64(span-length, 1)
				spec.Ops[c] = append(spec.Ops[c], clampedOp(c, KindWrite, 0, woff, length, end))
			} else {
				spec.Ops[c] = append(spec.Ops[c], Op{Client: c, Kind: KindRead, File: 0, Off: off, Len: length})
			}
		}
	}
	return spec, nil
}

// genProdCons: clients pair up — even clients produce, odd clients
// consume. Each pair has its own file; the producer writes the whole
// file, flushes, and only after a global barrier does the consumer (on a
// different node when one exists) read it back. The flush + barrier is
// exactly the hand-off the system's weak inter-node coherence guarantees:
// the consumer's node holds no copy before the barrier, so it reads the
// producer's flushed bytes from the iod.
func genProdCons(p Params) (*Spec, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	pairs := p.Clients / 2
	if pairs == 0 {
		return nil, fmt.Errorf("workload: prodcons needs at least 2 clients, got %d", p.Clients)
	}
	files := make([]FileSpec, pairs)
	// Size pair files so a producer pass fits the op budget.
	pairSize := min64(p.FileSize, int64(p.OpsPerClient/2)*p.MaxIO)
	if pairSize < p.MaxIO {
		pairSize = p.MaxIO
	}
	for i := range files {
		files[i] = FileSpec{Name: fmt.Sprintf("wl/pc-%d.dat", i), Size: pairSize}
	}
	spec := newSpec("prodcons", p, files)
	for c := 0; c < p.Clients; c++ {
		pair := c / 2
		if pair >= pairs { // odd trailing client: extra consumer of pair 0
			pair = 0
		}
		budget := p.OpsPerClient - 2
		if c%2 == 0 && c/2 < pairs { // producer
			spec.Placement[c] = 0
			spec.Ops[c] = appendPass(spec.Ops[c], c, KindWrite, pair, 0, pairSize, p.MaxIO, budget)
			spec.Ops[c] = append(spec.Ops[c],
				Op{Client: c, Kind: KindFlush},
				Op{Client: c, Kind: KindBarrier})
		} else { // consumer
			spec.Placement[c] = min(1, p.Nodes-1)
			spec.Ops[c] = append(spec.Ops[c],
				Op{Client: c, Kind: KindFlush}, // symmetric phase shape
				Op{Client: c, Kind: KindBarrier})
			spec.Ops[c] = appendPass(spec.Ops[c], c, KindRead, pair, 0, pairSize, p.MaxIO, budget)
		}
	}
	return spec, nil
}

// genMetadata: namespace storms against the single mgr — create/list/
// unlink cycles of per-client scratch files — interleaved with small
// reads and writes in the client's region of a shared data file, so the
// oracle still verifies bytes while the mgr is hammered.
func genMetadata(p Params) (*Spec, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	spec := newSpec("metadata", p, []FileSpec{{Name: "wl/meta.dat", Size: p.FileSize}})
	for c := 0; c < p.Clients; c++ {
		spec.Placement[c] = roundRobin(p, c)
		start, end := p.region(c)
		rng := rand.New(rand.NewSource(p.Seed ^ int64(c)*0x2545F4914F6CDD1D))
		scratch := 0
		live := 0 // scratch files currently existing
		for n := p.OpsPerClient; n > 0; n-- {
			switch r := rng.Float64(); {
			case r < 0.25:
				spec.Ops[c] = append(spec.Ops[c], Op{Client: c, Kind: KindCreate, File: scratch})
				scratch++
				live++
			case r < 0.40 && live > 0:
				live--
				spec.Ops[c] = append(spec.Ops[c], Op{Client: c, Kind: KindUnlink, File: scratch - live - 1})
			case r < 0.55:
				spec.Ops[c] = append(spec.Ops[c], Op{Client: c, Kind: KindList})
			case r < 0.80:
				off := start + rng.Int63n(max64(end-start-4096, 1))
				spec.Ops[c] = append(spec.Ops[c], clampedOp(c, KindWrite, 0, off, 4096, end))
			default:
				off := start + rng.Int63n(max64(end-start-4096, 1))
				spec.Ops[c] = append(spec.Ops[c], clampedOp(c, KindRead, 0, off, 4096, end))
			}
		}
	}
	return spec, nil
}

// genAntagonist: every client on node 0, and client 0 is the antagonist —
// back-to-back MaxIO writes over its own region, several passes deep, so
// the shared cache's dirty list is saturated by one principal. The
// remaining clients are victims: small alternating reads and writes in
// their own regions. With per-tenant QoS off this is the noisy-neighbour
// shape (victim writes stall behind the antagonist's dirty backlog); with
// quotas on, the antagonist sheds and retries instead. Writes stay
// region-owned either way, so the consistency oracle verifies every byte
// of both tenants.
func genAntagonist(p Params) (*Spec, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if p.Clients < 2 {
		return nil, fmt.Errorf("workload: antagonist needs at least 2 clients, got %d", p.Clients)
	}
	spec := newSpec("antagonist", p, []FileSpec{{Name: "wl/antag.dat", Size: p.FileSize}})
	for c := 0; c < p.Clients; c++ {
		spec.Placement[c] = 0 // one shared cache: the contention point
		start, end := p.region(c)
		budget := p.OpsPerClient
		if c == 0 {
			// Antagonist: a saturating maximum-size write pass, no reads.
			spec.Ops[c] = appendPass(spec.Ops[c], c, KindWrite, 0, start, end, p.MaxIO, budget)
			continue
		}
		// Victim: small ops at deterministic pseudo-random offsets in its
		// own region, half reads, half writes.
		rng := rand.New(rand.NewSource(p.Seed ^ int64(c)*0x5DEECE66D))
		const small = 4096
		for n := budget; n > 0; n-- {
			off := start + rng.Int63n(max64(end-start-small, 1))
			kind := KindRead
			if rng.Float64() < 0.5 {
				kind = KindWrite
			}
			spec.Ops[c] = append(spec.Ops[c], clampedOp(c, kind, 0, off, small, end))
		}
	}
	return spec, nil
}

// --- generator helpers ---

func newSpec(name string, p Params, files []FileSpec) *Spec {
	return &Spec{
		Scenario:  name,
		Params:    p,
		Files:     files,
		Placement: make([]int, p.Clients),
		Ops:       make([][]Op, p.Clients),
	}
}

// appendPass emits n sequential ops of the given kind walking [start,
// end) in chunks, wrapping back to start.
func appendPass(ops []Op, c int, kind Kind, file int, start, end, maxIO int64, n int) []Op {
	chunk := chunkFor(start, end, maxIO)
	off := start
	for ; n > 0; n-- {
		ops = append(ops, clampedOp(c, kind, file, off, chunk, end))
		off += chunk
		if off >= end {
			off = start
		}
	}
	return ops
}

// chunkFor picks the chunk size for a pass over [start, end).
func chunkFor(start, end, maxIO int64) int64 {
	chunk := maxIO
	if span := end - start; chunk > span {
		chunk = span
	}
	if chunk < 1 {
		chunk = 1
	}
	return chunk
}

// clampedOp builds a read/write op clipped to the region end.
func clampedOp(c int, kind Kind, file int, off, length, end int64) Op {
	if off+length > end {
		length = end - off
	}
	return Op{Client: c, Kind: kind, File: file, Off: off, Len: length}
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
