// Package sim is a deterministic, process-oriented discrete-event
// simulation kernel (in the style of SimPy or CSIM). Model code is written
// as ordinary sequential Go functions running in simulated processes;
// virtual time advances only through Sleep, resource waits and signal
// waits. Exactly one process executes at any instant — the kernel hands
// control between goroutines explicitly — so runs are fully deterministic
// for a given model and seed.
//
// The cluster model in package simcluster uses this kernel to reproduce
// the paper's figures in virtual time on calibrated 2002-era hardware
// parameters.
package sim

import (
	"container/heap"
	"fmt"
	"time"
)

// Env is one simulation universe: a virtual clock and an event queue.
// Create with NewEnv; not safe for use from multiple OS threads except
// through the process API.
type Env struct {
	now    time.Duration
	events eventHeap
	seq    uint64

	yield   chan struct{} // running process -> scheduler
	procs   int           // live processes
	blocked int           // processes waiting on signals/resources
}

// NewEnv returns an empty environment at time zero.
func NewEnv() *Env {
	return &Env{yield: make(chan struct{})}
}

// Now returns the current virtual time.
func (e *Env) Now() time.Duration { return e.now }

// event is a scheduled callback.
type event struct {
	at  time.Duration
	seq uint64
	fn  func()
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	*h = old[:n-1]
	return ev
}

// Schedule runs fn after delay of virtual time. Events at equal times fire
// in scheduling order. fn executes in scheduler context and must not block.
func (e *Env) Schedule(delay time.Duration, fn func()) {
	if delay < 0 {
		delay = 0
	}
	e.seq++
	heap.Push(&e.events, event{at: e.now + delay, seq: e.seq, fn: fn})
}

// Proc is a simulated process. Its methods may only be called from within
// the process's own function.
type Proc struct {
	env  *Env
	name string
	wake chan struct{}
}

// Go spawns a process that starts at the current virtual time.
func (e *Env) Go(name string, fn func(p *Proc)) {
	p := &Proc{env: e, name: name, wake: make(chan struct{})}
	e.procs++
	e.Schedule(0, func() {
		go func() {
			<-p.wake // wait for the scheduler's handoff
			fn(p)
			e.procs--
			e.yield <- struct{}{} // final yield: process done
		}()
		e.handoff(p)
	})
}

// handoff transfers control to p and blocks the scheduler until p yields.
func (e *Env) handoff(p *Proc) {
	p.wake <- struct{}{}
	<-e.yield
}

// yieldToScheduler parks the calling process until its next wake event.
func (p *Proc) yieldToScheduler() {
	p.env.yield <- struct{}{}
	<-p.wake
}

// Sleep advances the process by d of virtual time.
func (p *Proc) Sleep(d time.Duration) {
	e := p.env
	e.Schedule(d, func() { e.handoff(p) })
	p.yieldToScheduler()
}

// Run executes events until the queue is empty. It returns the final
// virtual time. Blocked processes that can never be woken are reported by
// Deadlocked afterwards.
func (e *Env) Run() time.Duration {
	for len(e.events) > 0 {
		ev := heap.Pop(&e.events).(event)
		e.now = ev.at
		ev.fn()
	}
	return e.now
}

// RunUntil executes events with timestamps <= t, then sets the clock to t.
func (e *Env) RunUntil(t time.Duration) {
	for len(e.events) > 0 && e.events[0].at <= t {
		ev := heap.Pop(&e.events).(event)
		e.now = ev.at
		ev.fn()
	}
	if e.now < t {
		e.now = t
	}
}

// Deadlocked returns the number of processes still blocked after Run
// drained the event queue (0 for a clean termination; background daemons
// parked on signals also count, so interpret with model knowledge).
func (e *Env) Deadlocked() int { return e.blocked }

// Signal is a broadcast condition: processes Wait on it; Fire wakes every
// current waiter at the current virtual time.
type Signal struct {
	env     *Env
	waiters []*Proc
}

// NewSignal returns a signal bound to the environment.
func (e *Env) NewSignal() *Signal { return &Signal{env: e} }

// Wait parks the process until the next Fire.
func (s *Signal) Wait(p *Proc) {
	s.waiters = append(s.waiters, p)
	p.env.blocked++
	p.yieldToScheduler()
}

// Fire wakes every waiting process. Waiters resume at the current time, in
// wait order, after the firing process next yields.
func (s *Signal) Fire() {
	waiters := s.waiters
	s.waiters = nil
	for _, p := range waiters {
		p := p
		s.env.blocked--
		s.env.Schedule(0, func() { s.env.handoff(p) })
	}
}

// Waiters returns the number of processes currently parked on the signal.
func (s *Signal) Waiters() int { return len(s.waiters) }

// Resource is a FIFO server pool with fixed capacity: Acquire blocks (in
// virtual time) while all units are held. It models disks, NICs, the
// shared hub, and time-shared CPUs.
type Resource struct {
	env      *Env
	name     string
	capacity int
	inUse    int
	queue    []*Proc

	// Busy accumulates total held time across all units (utilization).
	Busy time.Duration
	// Waits counts acquisitions that had to queue.
	Waits int
	held  map[*Proc]time.Duration
}

// NewResource returns a resource with the given capacity (units).
func (e *Env) NewResource(name string, capacity int) *Resource {
	if capacity <= 0 {
		panic(fmt.Sprintf("sim: resource %q capacity %d", name, capacity))
	}
	return &Resource{env: e, name: name, capacity: capacity, held: make(map[*Proc]time.Duration)}
}

// Acquire obtains one unit, queueing FIFO if none is free.
func (r *Resource) Acquire(p *Proc) {
	if r.inUse < r.capacity {
		r.inUse++
		r.held[p] = r.env.now
		return
	}
	r.Waits++
	r.queue = append(r.queue, p)
	r.env.blocked++
	p.yieldToScheduler()
	// Woken by Release, which already accounted the unit to us.
	r.held[p] = r.env.now
}

// Release returns the unit held by p and hands it to the oldest waiter.
func (r *Resource) Release(p *Proc) {
	start, ok := r.held[p]
	if !ok {
		panic(fmt.Sprintf("sim: release of %q by non-holder %q", r.name, p.name))
	}
	delete(r.held, p)
	r.Busy += r.env.now - start
	if len(r.queue) > 0 {
		next := r.queue[0]
		r.queue = r.queue[1:]
		r.env.blocked--
		r.env.Schedule(0, func() { r.env.handoff(next) })
		return
	}
	r.inUse--
}

// Use acquires the resource, sleeps for d, and releases it: the common
// "hold a server for a service time" idiom.
func (r *Resource) Use(p *Proc, d time.Duration) {
	r.Acquire(p)
	p.Sleep(d)
	r.Release(p)
}
