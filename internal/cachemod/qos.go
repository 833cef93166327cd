package cachemod

import (
	"sync/atomic"
	"time"

	"pvfscache/internal/blockio"
	"pvfscache/internal/metrics"
)

// Multi-tenant QoS: per-principal accounting and overload shedding.
//
// libpvfs tags a file with a tenant (principal) id and weight at open time
// (pvfs.TenantHinter → CachedTransport.TenantHint → SetTenant); the module
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

func (m *Module) newTenantState(tenant uint32, weight int) *tenantState {
	st := &tenantState{tenant: tenant}
	st.weight.Store(int64(weight))
	st.readSheds, st.writeSheds = tenantSheds(m.cfg.Registry, tenant)
	return st
}

// SetTenant records a file's tenant tag and scheduling weight (the
// TenantHint seam). Tenant 0 clears the tag. The table is bounded like the
// other hint tables: tags re-arrive on the next open, so resetting a full
// table costs a brief attribution lapse, not correctness.
func (m *Module) SetTenant(file blockio.FileID, tenant uint32, weight int) {
	if weight < 1 {
		weight = 1
	}
	m.tenantMu.Lock()
	if tenant == 0 {
		if _, ok := m.tenants[file]; ok {
			delete(m.tenants, file)
			m.tenantCount.Add(-1)
		}
	} else {
		if len(m.tenants) >= maxHintedFiles {
			m.tenants = make(map[blockio.FileID]uint32)
			m.tenantCount.Store(0)
		}
		if _, ok := m.tenants[file]; !ok {
			m.tenantCount.Add(1)
		}
		m.tenants[file] = tenant
		st := m.qos[tenant]
		if st == nil {
			st = m.newTenantState(tenant, weight)
			m.qos[tenant] = st
		} else {
			st.weight.Store(int64(weight))
		}
	}
	m.tenantMu.Unlock()
	if tenant != 0 {
		// The flusher's weighted batch selection shares the same weight.
		m.buf.SetTenantWeight(tenant, weight)
	}
}

// tenantOf returns a file's tenant tag (0 when untagged). The racy
// tenantCount fast path is safe for the same reason cachePolicy's is:
// tags are advisory, and a request racing a tag change may legitimately
// see either side of it.
func (m *Module) tenantOf(file blockio.FileID) uint32 {
	if m.tenantCount.Load() == 0 {
		return 0
	}
	m.tenantMu.Lock()
	t := m.tenants[file]
	m.tenantMu.Unlock()
	return t
}

// tenantState returns (creating if needed) a tenant's QoS state. A state
// created here rather than by SetTenant starts at weight 1; the next hint
// updates it.
func (m *Module) tenantState(tenant uint32) *tenantState {
	m.tenantMu.Lock()
	st := m.qos[tenant]
	if st == nil {
		st = m.newTenantState(tenant, 1)
		m.qos[tenant] = st
	}
	m.tenantMu.Unlock()
	return st
}

// overDirtyQuota reports whether a tenant has reached its dirty-frame
// quota (TenantDirtyQuota × capacity × weight, minimum one frame).
func (m *Module) overDirtyQuota(tenant uint32) bool {
	if m.cfg.TenantDirtyQuota <= 0 || tenant == 0 {
		return false
	}
	st := m.tenantState(tenant)
	quota := int(m.cfg.TenantDirtyQuota*float64(m.buf.Capacity())) * int(st.weight.Load())
	if quota < 1 {
		quota = 1
	}
	return m.buf.DirtyCountTenant(tenant) >= quota
}

// shedWrite is the write-path overload gate: an over-quota tenant's write
// first kicks the flusher and waits up to OverloadStall for flush progress
// (every acked chunk signals space), then sheds if still over. Shedding
// before any span is buffered keeps the operation cleanly re-issuable.
func (m *Module) shedWrite(tenant uint32) bool {
	if !m.overDirtyQuota(tenant) {
		return false
	}
	m.kickFlusher()
	deadline := time.Now().Add(m.cfg.OverloadStall)
	for m.overDirtyQuota(tenant) {
		if !m.waitForSpace(deadline) {
			if m.overDirtyQuota(tenant) {
				m.tenantState(tenant).writeSheds.Inc()
				return true
			}
			return false
		}
	}
	return false
}

// acquireFetchBudget charges blocks read blocks to a tenant's in-flight
// budget. It returns the charged state (nil when budgets are off or the
// tenant untagged) and whether the request may proceed; a false return
// means the caller must shed with StatusOverload. A request larger than
// the whole budget is admitted when the tenant has nothing else in flight,
// so oversized reads retry until quiet instead of wedging forever. The
// caller must release exactly once (tenantState.releaseFetch).
func (m *Module) acquireFetchBudget(tenant uint32, blocks int) (*tenantState, bool) {
	if m.cfg.TenantFetchBudget <= 0 || tenant == 0 || blocks <= 0 {
		return nil, true
	}
	st := m.tenantState(tenant)
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
	m.tenantMu.Lock()
	st := m.qos[tenant]
	m.tenantMu.Unlock()
	if st == nil {
		return 0
	}
	return st.inflight.Load()
}
