package engine

import (
	"context"
	"fmt"
)

// EpochID versions a tenant's instance. The paper's guarantees
// (Definition 2.2, Theorem 4.1) hold for a *fixed* instance I; under
// churn the fixed object is the pair (I_e, r) for one epoch e, so the
// unit of bit-exact consistency becomes (TenantID, EpochID). Epoch 0
// is the tenant's initial instance.
type EpochID uint64

// EpochCurrent is the sentinel epoch meaning "serve whatever epoch is
// current and tell me which one that was". It is never a real epoch.
const EpochCurrent = ^EpochID(0)

// VersionedTenant is the full consistency key: one solution
// C(I_e, r). Two processes holding the same VersionedTenant are
// interchangeable bit-for-bit; two epochs of the same tenant are not.
type VersionedTenant struct {
	// Tenant names the instance lineage and seed.
	Tenant TenantID
	// Epoch selects one sealed version of the instance.
	Epoch EpochID
}

// String renders the key as a metrics label and artifact file name.
// Epoch 0 renders as the tenant alone ("i<instance>-s<seed>"), so a
// tenant that never churns carries no epoch suffix on dashboards or
// in its store path; later epochs append "-e<epoch>".
func (vt VersionedTenant) String() string {
	if vt.Epoch == 0 {
		return vt.Tenant.String()
	}
	return fmt.Sprintf("i%d-s%d-e%d", vt.Tenant.Instance, vt.Tenant.Seed, uint64(vt.Epoch))
}

// VersionedTenantFactory derives the state of one (tenant, epoch)
// pair on first use: dial the epoch's instance, build the LCA over it
// with the tenant's seed, wrap it in an Engine. Derivation is the
// expensive step the table amortizes — it runs once per residency
// (single-flight), never per query; the epoch manager's sealed
// instances make it pure per epoch.
type VersionedTenantFactory func(ctx context.Context, vt VersionedTenant) (TenantState, error)
