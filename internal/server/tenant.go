package server

import (
	"errors"
	"sync"
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
// A tenant has an entry only while it has requests in flight, so the
// table is bounded by the in-flight requests, not by the number of
// tenant names clients have ever sent.
type tenantTable struct {
	quota int
	mu    sync.Mutex
	out   map[string]int // tenant → outstanding requests (> 0)
}

func newTenantTable(quota int) *tenantTable {
	if quota <= 0 {
		return nil
	}
	return &tenantTable{quota: quota, out: make(map[string]int)}
}

// admit reserves quota slots for up to n of tenant's requests and
// returns how many were admitted; the remainder must be rejected with
// ErrTenantQuota. A nil table admits everything through one branch.
// Admission is partial at arrival, like Engine.admit, and deterministic
// for a sequential caller.
func (t *tenantTable) admit(tenant string, n int) int {
	if t == nil {
		return n
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	cur := t.out[tenant]
	take := min(n, t.quota-cur)
	if take <= 0 {
		return 0
	}
	t.out[tenant] = cur + take
	return take
}

// release frees n of tenant's admitted slots, dropping the tenant's
// entry once none are left.
func (t *tenantTable) release(tenant string, n int) {
	if t == nil || n == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if left := t.out[tenant] - n; left > 0 {
		t.out[tenant] = left
	} else {
		delete(t.out, tenant)
	}
}
