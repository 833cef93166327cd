package cachemod

import (
	"fmt"
	"strings"
	"time"

	"pvfscache/internal/blockio"
)

// Per-request trace mode: the admin endpoint arms N traces and the next N
// requests entering the module's FSM each log their hops — classification,
// fetch round trips, sheds, joins — with millisecond timings relative to
// the request's start. Captured traces sit in a bounded ring until drained
// by TraceText, so an armed-but-idle daemon holds at most traceRingSize
// logs. Tracing costs nothing when disarmed: the request path pays one
// atomic load.

// traceRingSize bounds the captured-trace ring.
const traceRingSize = 32

// ArmTrace arms trace mode for the next n requests (n <= 0 disarms).
func (m *Module) ArmTrace(n int) {
	if n < 0 {
		n = 0
	}
	m.traceArm.Store(int64(n))
}

// TraceArmed reports how many requests are still to be traced.
func (m *Module) TraceArmed() int { return int(m.traceArm.Load()) }

// TraceText drains the captured traces as a human-readable log, oldest
// first; it returns "" when nothing was captured.
func (m *Module) TraceText() string {
	m.traceMu.Lock()
	defer m.traceMu.Unlock()
	if len(m.traces) == 0 {
		return ""
	}
	out := strings.Join(m.traces, "\n---\n") + "\n"
	m.traces = nil
	return out
}

// reqTrace is one traced request's hop log. A nil *reqTrace is the
// disarmed case: hop and finishf are no-ops on it, so the request path
// calls them unconditionally.
type reqTrace struct {
	m     *Module
	start time.Time
	steps []string
}

// traceStart claims one armed trace slot, or returns nil when disarmed.
func (m *Module) traceStart(op string, file blockio.FileID, off, length int64) *reqTrace {
	for {
		n := m.traceArm.Load()
		if n <= 0 {
			return nil
		}
		if m.traceArm.CompareAndSwap(n, n-1) {
			break
		}
	}
	rt := &reqTrace{m: m, start: time.Now()}
	rt.hop("%s file=%d off=%d len=%d", op, file, off, length)
	return rt
}

// hop appends one timestamped step. Safe on a nil receiver.
func (rt *reqTrace) hop(format string, args ...any) {
	if rt == nil {
		return
	}
	elapsed := float64(time.Since(rt.start).Microseconds()) / 1000
	rt.steps = append(rt.steps, fmt.Sprintf("%9.3fms %s", elapsed, fmt.Sprintf(format, args...)))
}

// finishf records the outcome and publishes the trace to the module's
// ring. Safe on a nil receiver, and like hop it formats only when armed, so
// a disarmed request never builds the outcome string.
func (rt *reqTrace) finishf(format string, args ...any) {
	if rt == nil {
		return
	}
	rt.hop("done: "+format, args...)
	text := strings.Join(rt.steps, "\n")
	m := rt.m
	m.traceMu.Lock()
	m.traces = append(m.traces, text)
	if len(m.traces) > traceRingSize {
		m.traces = m.traces[len(m.traces)-traceRingSize:]
	}
	m.traceMu.Unlock()
}
