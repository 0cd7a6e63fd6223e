package gateway

import (
	"bufio"
	"crypto/sha256"
	"crypto/subtle"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"lcakp/internal/engine"
)

// authEntry is one API key's grant: every tenant (all) or an explicit
// set. The key is kept beside its digest for the one outbound use, a
// peer fetch (keyFor); inbound checks compare digests only.
type authEntry struct {
	key     []byte
	hash    [sha256.Size]byte
	all     bool
	tenants map[engine.TenantID]struct{}
}

// covers reports whether the entry grants tenant id.
func (e *authEntry) covers(id engine.TenantID) bool {
	if e.all {
		return true
	}
	_, ok := e.tenants[id]
	return ok
}

// Authorizer maps API keys to tenant grants. Inbound keys are compared
// as SHA-256 digests with a constant-time comparison that always scans
// every entry, so neither the match position nor a near-miss prefix
// leaks through timing. A ring of gateways shares one key file, as it
// shares its -peers list: a gateway fetching a tenant's artifact from
// a peer presents a key the file grants that tenant, and the peer
// checks it like any read.
type Authorizer struct {
	entries []authEntry
}

// NewAuthorizer builds an empty authorizer; see Grant and
// LoadAPIKeys.
func NewAuthorizer() *Authorizer { return &Authorizer{} }

// Grant authorizes key for the given tenants; an empty tenant list
// grants every tenant (the wildcard).
func (a *Authorizer) Grant(key string, tenants ...engine.TenantID) {
	e := authEntry{key: []byte(key), hash: sha256.Sum256([]byte(key))}
	if len(tenants) == 0 {
		e.all = true
	} else {
		e.tenants = make(map[engine.TenantID]struct{}, len(tenants))
		for _, id := range tenants {
			e.tenants[id] = struct{}{}
		}
	}
	a.entries = append(a.entries, e)
}

// Len reports how many keys are loaded.
func (a *Authorizer) Len() int { return len(a.entries) }

// Allow reports whether key is authorized for tenant id. The digest
// comparison runs over every entry unconditionally.
func (a *Authorizer) Allow(key []byte, id engine.TenantID) bool {
	if len(key) == 0 {
		return false
	}
	sum := sha256.Sum256(key)
	allowed := 0
	for i := range a.entries {
		e := &a.entries[i]
		match := subtle.ConstantTimeCompare(e.hash[:], sum[:])
		covers := 0
		if e.covers(id) {
			covers = 1
		}
		allowed |= match & covers
	}
	return allowed == 1
}

// keyFor returns the key a peer fetch of tenant id presents: the first
// key, in grant (file) order, that grants id. It is nil when none does
// or a is nil, and the fetch then carries no key.
func (a *Authorizer) keyFor(id engine.TenantID) []byte {
	if a == nil {
		return nil
	}
	for i := range a.entries {
		if a.entries[i].covers(id) {
			return a.entries[i].key
		}
	}
	return nil
}

// ParseAPIKeys reads an API-key ACL in the lcagateway file format: one
// key per line,
//
//	<key> *                                  # key may query every tenant
//	<key> <instance>:<seed> [<instance>:<seed> ...]
//
// with #-comments and blank lines ignored. Keys are at most 255 bytes
// (the wire's auth-extension bound).
func ParseAPIKeys(r io.Reader) (*Authorizer, error) {
	a := NewAuthorizer()
	scanner := bufio.NewScanner(r)
	lineNo := 0
	for scanner.Scan() {
		lineNo++
		line := strings.TrimSpace(scanner.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, fmt.Errorf("gateway: api keys line %d: want \"<key> *\" or \"<key> <instance>:<seed>...\"", lineNo)
		}
		key := fields[0]
		if len(key) > 255 {
			return nil, fmt.Errorf("gateway: api keys line %d: key of %d bytes (max 255)", lineNo, len(key))
		}
		if len(fields) == 2 && fields[1] == "*" {
			a.Grant(key)
			continue
		}
		tenants := make([]engine.TenantID, 0, len(fields)-1)
		for _, grant := range fields[1:] {
			instStr, seedStr, ok := strings.Cut(grant, ":")
			if !ok {
				return nil, fmt.Errorf("gateway: api keys line %d: grant %q is not <instance>:<seed>", lineNo, grant)
			}
			inst, err := strconv.ParseUint(instStr, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("gateway: api keys line %d: instance %q: %w", lineNo, instStr, err)
			}
			seed, err := strconv.ParseUint(seedStr, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("gateway: api keys line %d: seed %q: %w", lineNo, seedStr, err)
			}
			tenants = append(tenants, engine.TenantID{Instance: inst, Seed: seed})
		}
		a.Grant(key, tenants...)
	}
	if err := scanner.Err(); err != nil {
		return nil, fmt.Errorf("gateway: read api keys: %w", err)
	}
	return a, nil
}

// LoadAPIKeys reads an API-key ACL file (see ParseAPIKeys).
func LoadAPIKeys(path string) (*Authorizer, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("gateway: open api keys: %w", err)
	}
	defer f.Close()
	return ParseAPIKeys(f)
}
