package server

import (
	"errors"
	"sync"
	"sync/atomic"
)

// ErrTenantQuota is the typed per-tenant rejection of the serving
// tier's admission control: the tenant already has its full quota of
// outstanding requests in flight, so the arriving request was rejected
// before touching any shard — the multi-tenant sibling of the engine's
// ErrShed. Rejected requests did no work; the caller may retry after
// its in-flight requests drain. Match with errors.Is.
var ErrTenantQuota = errors.New("server: tenant quota exceeded: too many outstanding requests")

// maxTenantLen bounds tenant identifiers on the wire; combined with the
// charset check it also bounds the quota table's growth per client.
const maxTenantLen = 64

// validTenant reports whether s is an acceptable tenant identifier:
// empty (the anonymous default tenant) or 1..64 bytes of
// [A-Za-z0-9._-]. Anything else is a 400, not a new table entry.
func validTenant(s string) bool {
	if len(s) > maxTenantLen {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

// tenantTable tracks outstanding requests per tenant against a shared
// quota, layered in front of the per-shard engines' MaxQueue admission:
// the engine bound protects the process, the tenant bound protects
// tenants from each other. The zero quota disables the table entirely.
type tenantTable struct {
	quota int
	mu    sync.RWMutex
	out   map[string]*atomic.Int64 // tenant → outstanding requests
}

func newTenantTable(quota int) *tenantTable {
	if quota <= 0 {
		return nil
	}
	return &tenantTable{quota: quota, out: make(map[string]*atomic.Int64)}
}

// gauge returns tenant's outstanding-request gauge, creating it on
// first use. The RWMutex is double-checked: steady state is a read lock
// and a map hit.
func (t *tenantTable) gauge(tenant string) *atomic.Int64 {
	t.mu.RLock()
	g := t.out[tenant]
	t.mu.RUnlock()
	if g != nil {
		return g
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if g = t.out[tenant]; g == nil {
		g = &atomic.Int64{}
		t.out[tenant] = g
	}
	return g
}

// admit reserves quota slots for up to n of tenant's requests and
// returns how many were admitted; the remainder must be rejected with
// ErrTenantQuota. A nil table admits everything through one branch.
// The CAS loop mirrors Engine.admit — partial admission at arrival,
// deterministic for a sequential caller.
func (t *tenantTable) admit(tenant string, n int) int {
	if t == nil {
		return n
	}
	g := t.gauge(tenant)
	for {
		cur := g.Load()
		free := int64(t.quota) - cur
		if free <= 0 {
			return 0
		}
		take := int64(n)
		if take > free {
			take = free
		}
		if g.CompareAndSwap(cur, cur+take) {
			return int(take)
		}
	}
}

// release frees n of tenant's admitted slots.
func (t *tenantTable) release(tenant string, n int) {
	if t == nil || n == 0 {
		return
	}
	t.gauge(tenant).Add(int64(-n))
}

// outstanding reports tenant's current in-flight count (0 for unknown
// tenants); the quiescent-exactness soak asserts it drains to zero.
func (t *tenantTable) outstanding(tenant string) int64 {
	if t == nil {
		return 0
	}
	t.mu.RLock()
	g := t.out[tenant]
	t.mu.RUnlock()
	if g == nil {
		return 0
	}
	return g.Load()
}
