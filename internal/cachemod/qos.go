package cachemod

import (
	"sync/atomic"

	"pvfscache/internal/metrics"
)

// Multi-tenant QoS: per-principal accounting and overload shedding.
//
// libpvfs tags a file with a tenant (principal) id and weight at open time
// (pvfs.TenantHinter → CachedTransport.TenantHint); the module
// then charges the file's dirty frames and in-flight read blocks to that
// principal. Two bounds keep an antagonist tenant from monopolizing the
// node:
//
//   - a dirty-frame quota (Config.TenantDirtyQuota): a tenant over its
//     share of the cache's dirty frames has its buffered writes shed with
//     wire.StatusOverload after a short OverloadStall wait for flush
//     progress, instead of stalling every other tenant's writes behind a
//     full dirty list;
//   - an in-flight read budget (Config.TenantFetchBudget): a tenant with
//     too many read blocks outstanding has further reads shed the same
//     way, instead of queueing unboundedly on the fetch path.
//
// Shedding is explicit and retryable — pvfs.Client backs off and re-issues
// the whole idempotent operation — so quota pressure degrades the
// offender, not the node. Tenant 0 (untagged) is never shed: QoS only
// constrains principals that opted into tagging. The flusher's weighted
// batch selection (buffer.SetTenantWeight → apportionByWeight) is the
// scheduling half of the same seam.

// tenantState is one principal's live QoS state. weight is stored
// atomically because hints may re-arrive concurrently with request-path
// reads.
type tenantState struct {
	tenant   uint32
	weight   atomic.Int64
	inflight atomic.Int64 // read blocks currently in flight

	readSheds  *metrics.Counter
	writeSheds *metrics.Counter
}

// tenantFor returns (creating if needed) a tenant's QoS state at the hinted
// weight: TenantHint's half of the record, held by pointer in every file
// the tenant tags so a request never looks a tenant up by id.
func (m *Module) tenantFor(tenant uint32, weight int) *tenantState {
	m.filesMu.Lock()
	defer m.filesMu.Unlock()
	st := m.qos[tenant]
	if st == nil {
		st = &tenantState{tenant: tenant}
		st.readSheds, st.writeSheds = tenantSheds(m.cfg.Registry, tenant)
		m.qos[tenant] = st
	}
	st.weight.Store(int64(weight))
	return st
}

// id is the tenant a state charges; 0 (untagged) for nil.
func (st *tenantState) id() uint32 {
	if st == nil {
		return 0
	}
	return st.tenant
}

// overDirtyQuota reports whether a tenant has reached its dirty-frame
// quota (TenantDirtyQuota × capacity × weight, minimum one frame).
func (m *Module) overDirtyQuota(st *tenantState) bool {
	if m.cfg.TenantDirtyQuota <= 0 || st == nil {
		return false
	}
	quota := int(m.cfg.TenantDirtyQuota*float64(m.buf.Capacity())) * int(st.weight.Load())
	if quota < 1 {
		quota = 1
	}
	return m.buf.DirtyCountTenant(st.tenant) >= quota
}

// shedWrite is the write-path overload gate: an over-quota tenant's write
// first kicks the flusher and waits up to OverloadStall for flush progress
// to bring the tenant under its quota, then sheds if still over. Shedding
// before any span is buffered keeps the operation cleanly re-issuable.
func (m *Module) shedWrite(st *tenantState) bool {
	if !m.overDirtyQuota(st) {
		return false
	}
	m.kickAllStreams()
	if m.await(m.cfg.OverloadStall, func(bool) (done, _ bool) { return !m.overDirtyQuota(st), false }) {
		return false
	}
	st.writeSheds.Inc()
	return true
}

// acquireFetchBudget charges blocks read blocks to a tenant's in-flight
// budget. It returns the charged state (nil when budgets are off or the
// file untagged) and whether the request may proceed; a false return
// means the caller must shed with StatusOverload. A request larger than
// the whole budget is admitted when the tenant has nothing else in flight,
// so oversized reads retry until quiet instead of wedging forever. The
// caller must release exactly once (tenantState.releaseFetch).
func (m *Module) acquireFetchBudget(st *tenantState, blocks int) (*tenantState, bool) {
	if m.cfg.TenantFetchBudget <= 0 || st == nil || blocks <= 0 {
		return nil, true
	}
	limit := int64(m.cfg.TenantFetchBudget) * st.weight.Load()
	for {
		cur := st.inflight.Load()
		if cur+int64(blocks) > limit && cur > 0 {
			st.readSheds.Inc()
			return nil, false
		}
		if st.inflight.CompareAndSwap(cur, cur+int64(blocks)) {
			return st, true
		}
	}
}

// releaseFetch returns blocks read blocks to the tenant's in-flight budget;
// a nil state (budgets off, untagged tenant) was never charged.
func (st *tenantState) releaseFetch(blocks int) {
	if st != nil {
		st.inflight.Add(-int64(blocks))
	}
}

// TenantInflight reports a tenant's current in-flight read-block charge
// (tests and the admin endpoint).
func (m *Module) TenantInflight(tenant uint32) int64 {
	m.filesMu.RLock()
	st := m.qos[tenant]
	m.filesMu.RUnlock()
	if st == nil {
		return 0
	}
	return st.inflight.Load()
}
