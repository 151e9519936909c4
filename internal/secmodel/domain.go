package secmodel

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"policyoracle/internal/ir"
	"policyoracle/internal/types"
)

// CheckDesc describes one check method of a domain's guard class: its
// name and parameter count. Overloads of one name are distinct checks.
type CheckDesc struct {
	Name  string
	Arity int
}

// DomainSpec declares a check domain for NewDomain. A domain is the
// pluggable half of the oracle's model: which class's methods are
// security checks, which calls open privileged scope, and which call
// yields the guard state whose null test AssumeSecurityManager folds.
// The security-sensitive *events* (native calls, API returns, private
// field and parameter accesses) are domain-independent — every domain
// shares the same event definitions and ProgramEvents interning.
type DomainSpec struct {
	// ID is the stable domain identifier. It joins bundle fingerprints,
	// incremental option keys, and the policy wire format, so changing it
	// invalidates every persisted artifact of the domain. Lowercase
	// [a-z0-9-], non-empty.
	ID string
	// GuardClass is the simple name of the class whose methods (matched
	// by name+arity against Checks, on the class or any subtype) are the
	// domain's security checks.
	GuardClass string
	// Checks is the check table. CheckIDs are dense indexes into this
	// slice, so its order is part of the domain's persistent identity.
	// At most 64 checks (check sets are one machine word).
	Checks []CheckDesc
	// PrivilegedClass/PrivilegedMethod identify calls that enter
	// privileged scope (checks inside are semantic no-ops). Both empty
	// means the domain has no privileged-block semantics.
	PrivilegedClass  string
	PrivilegedMethod string
	// StateClass/StateMethod identify the zero-argument guard-state
	// accessor (System.getSecurityManager in the default domain) whose
	// result Config.AssumeSecurityManager assumes non-null. Both empty
	// means the option is inert for this domain.
	StateClass  string
	StateMethod string
}

// Domain is one instantiated check domain. Domains are immutable after
// construction and safe for concurrent use.
type Domain struct {
	id         string
	guardClass string
	checks     []CheckDesc
	index      map[CheckDesc]CheckID

	privClass, privMethod   string
	stateClass, stateMethod string
}

// NewDomain validates a spec and builds a Domain. The domain is not
// registered; call RegisterDomain to make it addressable by ID.
func NewDomain(spec DomainSpec) (*Domain, error) {
	if spec.ID == "" {
		return nil, fmt.Errorf("secmodel: domain ID must not be empty")
	}
	for _, r := range spec.ID {
		if (r < 'a' || r > 'z') && (r < '0' || r > '9') && r != '-' {
			return nil, fmt.Errorf("secmodel: domain ID %q must be lowercase [a-z0-9-]", spec.ID)
		}
	}
	if spec.GuardClass == "" {
		return nil, fmt.Errorf("secmodel: domain %s: guard class must not be empty", spec.ID)
	}
	if len(spec.Checks) == 0 {
		return nil, fmt.Errorf("secmodel: domain %s: check table must not be empty", spec.ID)
	}
	if len(spec.Checks) > 64 {
		return nil, fmt.Errorf("secmodel: domain %s: %d checks exceed the 64-bit check-set word", spec.ID, len(spec.Checks))
	}
	if (spec.PrivilegedClass == "") != (spec.PrivilegedMethod == "") {
		return nil, fmt.Errorf("secmodel: domain %s: privileged class and method must be set together", spec.ID)
	}
	if (spec.StateClass == "") != (spec.StateMethod == "") {
		return nil, fmt.Errorf("secmodel: domain %s: state class and method must be set together", spec.ID)
	}
	d := &Domain{
		id:          spec.ID,
		guardClass:  spec.GuardClass,
		checks:      append([]CheckDesc(nil), spec.Checks...),
		index:       make(map[CheckDesc]CheckID, len(spec.Checks)),
		privClass:   spec.PrivilegedClass,
		privMethod:  spec.PrivilegedMethod,
		stateClass:  spec.StateClass,
		stateMethod: spec.StateMethod,
	}
	for i, c := range d.checks {
		if c.Name == "" || c.Arity < 0 {
			return nil, fmt.Errorf("secmodel: domain %s: invalid check %+v", spec.ID, c)
		}
		if _, dup := d.index[c]; dup {
			return nil, fmt.Errorf("secmodel: domain %s: duplicate check %s/%d", spec.ID, c.Name, c.Arity)
		}
		d.index[c] = CheckID(i)
	}
	return d, nil
}

// ID returns the stable domain identifier.
func (d *Domain) ID() string { return d.id }

// GuardClass returns the simple name of the domain's check-owning class.
func (d *Domain) GuardClass() string { return d.guardClass }

// NumChecks returns the size of the domain's check table.
func (d *Domain) NumChecks() int { return len(d.checks) }

// CheckName returns the method name of a check ID.
func (d *Domain) CheckName(id CheckID) string {
	if int(id) < 0 || int(id) >= len(d.checks) {
		return fmt.Sprintf("check#%d", int(id))
	}
	return d.checks[id].Name
}

// CheckArity returns the parameter count of a check ID, or -1 for an ID
// outside the table.
func (d *Domain) CheckArity(id CheckID) int {
	if int(id) < 0 || int(id) >= len(d.checks) {
		return -1
	}
	return d.checks[id].Arity
}

// CheckByName returns the check ID for a name and arity.
func (d *Domain) CheckByName(name string, arity int) (CheckID, bool) {
	id, ok := d.index[CheckDesc{name, arity}]
	return id, ok
}

// CheckSetString renders a bitset of the domain's checks as sorted names.
func (d *Domain) CheckSetString(bits uint64) string {
	if bits == 0 {
		return "{}"
	}
	var names []string
	for i := 0; i < 64; i++ {
		if bits&(1<<uint(i)) != 0 {
			names = append(names, d.CheckName(CheckID(i)))
		}
	}
	sort.Strings(names)
	return "{" + strings.Join(names, ", ") + "}"
}

// IdentifyCheck reports whether call invokes one of the domain's checks,
// and which. A call is a check when its resolved declaration (or,
// failing that, its static receiver type) belongs to the guard class or
// a subtype, and the name+arity matches the check table.
func (d *Domain) IdentifyCheck(call *ir.Call) (CheckID, bool) {
	owner := ownerClass(call)
	if owner == nil || !d.IsGuardClass(owner) {
		return 0, false
	}
	if id, ok := d.CheckByName(call.Name, len(call.Args)); ok {
		return id, true
	}
	return 0, false
}

// IsGuardClass reports whether c is the domain's guard class or a
// subtype of it: the classes whose check-table methods are checks and
// whose instances stand for the installed guard object.
func (d *Domain) IsGuardClass(c *types.Class) bool {
	for k := c; k != nil; k = k.Super {
		if k.Simple == d.guardClass {
			return true
		}
	}
	return false
}

// IsDoPrivileged reports whether call enters the domain's privileged
// scope. Always false for domains without privileged-block semantics.
func (d *Domain) IsDoPrivileged(call *ir.Call) bool {
	if d.privMethod == "" || call.Name != d.privMethod {
		return false
	}
	owner := ownerClass(call)
	return owner != nil && owner.Simple == d.privClass
}

// IsPrivilegedScope reports whether m's body executes in privileged
// scope (the privileged entry method itself runs with the library's own
// permissions, so checks inside are semantic no-ops).
func (d *Domain) IsPrivilegedScope(m *types.Method) bool {
	return d.privMethod != "" && m.Name == d.privMethod && m.Class.Simple == d.privClass
}

// IsGetSecurityManager reports whether call is the domain's guard-state
// accessor, whose result is assumed non-null under
// Config.AssumeSecurityManager. Always false for domains without one.
func (d *Domain) IsGetSecurityManager(call *ir.Call) bool {
	if d.stateMethod == "" || call.Name != d.stateMethod || len(call.Args) != 0 {
		return false
	}
	owner := ownerClass(call)
	return owner != nil && owner.Simple == d.stateClass
}

// ---------------------------------------------------------------------------
// Registry

// DefaultDomainID is the ID of the registered default domain — the
// paper's SecurityManager model. An empty domain ID everywhere in the
// stack (options, wire formats, requests) resolves to it, which is what
// keeps pre-domain bundles, snapshots, and exports addressable.
const DefaultDomainID = "securitymanager"

// DomainLabel spells a wire domain ID as the registered ID it names: the
// empty ID is DefaultDomainID, and any other ID is itself. Error messages
// and domain assertions compare and print this form.
func DomainLabel(id string) string {
	if id == "" {
		return DefaultDomainID
	}
	return id
}

// CryptoDomainID is the ID of the bundled crypto-API misuse domain.
const CryptoDomainID = "cryptoapi"

var (
	domainMu  sync.RWMutex
	domains   = map[string]*Domain{}
	defDomain *Domain
	cryptoDom *Domain
)

// RegisterDomain adds a domain to the registry, making it addressable by
// ID from options wires, server requests, and CLI flags. Registering a
// second domain under an existing ID is an error: IDs address persisted
// artifacts, so they must be globally unique.
func RegisterDomain(d *Domain) error {
	if d == nil {
		return fmt.Errorf("secmodel: cannot register a nil domain")
	}
	domainMu.Lock()
	defer domainMu.Unlock()
	if _, dup := domains[d.id]; dup {
		return fmt.Errorf("secmodel: domain %q already registered", d.id)
	}
	domains[d.id] = d
	return nil
}

// ErrUnknownDomain reports a domain ID with no registered domain.
// Callers wrap it so the condition stays detectable with errors.Is
// across every layer (oracle, store, server).
var ErrUnknownDomain = errors.New("unknown check domain")

// ResolveDomain resolves a registered domain by ID, wrapping
// ErrUnknownDomain for unregistered IDs. The empty ID resolves to the
// default SecurityManager domain.
func ResolveDomain(id string) (*Domain, error) {
	d, ok := DomainByID(id)
	if !ok {
		return nil, fmt.Errorf("%w %q (registered: %s)", ErrUnknownDomain, id, strings.Join(Domains(), ", "))
	}
	return d, nil
}

// DomainByID resolves a registered domain. The empty ID resolves to the
// default SecurityManager domain.
func DomainByID(id string) (*Domain, bool) {
	if id == "" || id == DefaultDomainID {
		return SecurityManager(), true
	}
	domainMu.RLock()
	defer domainMu.RUnlock()
	d, ok := domains[id]
	return d, ok
}

// Domains lists the registered domain IDs, sorted.
func Domains() []string {
	domainMu.RLock()
	defer domainMu.RUnlock()
	out := make([]string, 0, len(domains))
	for id := range domains {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// SecurityManager returns the default domain: the paper's model of the
// 31 java.lang.SecurityManager checks, AccessController.doPrivileged
// privileged blocks, and System.getSecurityManager guard state.
func SecurityManager() *Domain { return defDomain }

// CryptoAPI returns the bundled crypto-API misuse domain: cipher, key,
// IV, and randomness hygiene checks (constant or reused IVs, ECB mode,
// short keys, unseeded RNGs, weak digests) owned by a CryptoGuard class,
// guarding the same native-call/API-return events. The domain has no
// privileged-block semantics and no guard-state accessor.
func CryptoAPI() *Domain { return cryptoDom }

func init() {
	var err error
	defDomain, err = NewDomain(DomainSpec{
		ID:               DefaultDomainID,
		GuardClass:       SecurityManagerClass,
		Checks:           securityManagerChecks,
		PrivilegedClass:  AccessControllerClass,
		PrivilegedMethod: DoPrivilegedMethod,
		StateClass:       "System",
		StateMethod:      "getSecurityManager",
	})
	if err == nil {
		err = RegisterDomain(defDomain)
	}
	if err == nil {
		cryptoDom, err = NewDomain(DomainSpec{
			ID:         CryptoDomainID,
			GuardClass: CryptoGuardClass,
			Checks:     cryptoChecks,
		})
	}
	if err == nil {
		err = RegisterDomain(cryptoDom)
	}
	if err != nil {
		panic(err)
	}
}

// CryptoGuardClass is the simple name of the crypto domain's check-owning
// class, mirroring SecurityManagerClass.
const CryptoGuardClass = "CryptoGuard"

// cryptoChecks is the crypto-API misuse check table: each check is a
// MUST-precede fact a cipher-call event should be guarded by, per
// "Evaluating Cryptographic API Misuse Detectors" — IV freshness and
// length, mode/padding safety, key size and algorithm, RNG seeding and
// entropy, certificate and hostname validation, digest and tag strength.
var cryptoChecks = []CheckDesc{
	{"checkCertChain", 1},
	{"checkCipherMode", 1},
	{"checkDigestStrength", 1},
	{"checkEntropySource", 0},
	{"checkHostnameVerified", 2},
	{"checkIvFresh", 1},
	{"checkIvLength", 1},
	{"checkKeyAlgorithm", 2},
	{"checkKeySize", 1},
	{"checkPadding", 1},
	{"checkSeeded", 0},
	{"checkTagLength", 1},
}
