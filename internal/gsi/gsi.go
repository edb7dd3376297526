// Package gsi implements the Grid Security Infrastructure layer [Foster et
// al. 1998] used by the Globus stack: challenge–response mutual
// authentication built on identity credentials, per-site authorization via
// gridmap files with black/white listing (the paper's §3.4 site-autonomy
// mechanisms), and the Community Authorization Service (CAS) [Pearlman et
// al. 2002] that issues community-scoped capability assertions.
package gsi

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/identity"
)

// Authorization errors.
var (
	ErrNotAuthenticated = errors.New("gsi: authentication failed")
	ErrNoMapping        = errors.New("gsi: subject not in gridmap")
	ErrBlacklisted      = errors.New("gsi: subject blacklisted")
	ErrNotWhitelisted   = errors.New("gsi: subject not whitelisted")
	ErrRightDenied      = errors.New("gsi: credential lacks required right")
	ErrAssertionExpired = errors.New("gsi: CAS assertion expired")
	ErrBadAssertion     = errors.New("gsi: CAS assertion signature invalid")
)

// ChainAuthenticator authenticates by validating the full certificate
// chain against trusted CAs (the GSI model).
type ChainAuthenticator struct {
	Verifier *identity.Verifier
}

// Authenticate returns the canonical subject name of a valid chain.
func (a *ChainAuthenticator) Authenticate(cred *identity.Credential, now time.Duration) (string, error) {
	subj, err := a.Verifier.Validate(cred, now)
	if err != nil {
		return "", fmt.Errorf("%w: %w", ErrNotAuthenticated, err)
	}
	return subj, nil
}

// Gridmap is a site's authorization database: it maps authenticated grid
// subjects to local accounts and applies site-local black/white lists —
// the concrete form of "black- or white-listing users at the site level".
type Gridmap struct {
	mapping   map[string]string
	blacklist map[string]bool
	whitelist map[string]bool
	// UseWhitelist, when true, denies any subject not explicitly listed.
	UseWhitelist bool
}

// NewGridmap returns an empty gridmap.
func NewGridmap() *Gridmap {
	return &Gridmap{
		mapping:   make(map[string]string),
		blacklist: make(map[string]bool),
		whitelist: make(map[string]bool),
	}
}

// Map binds a grid subject to a local account name.
func (g *Gridmap) Map(subject, localAccount string) { g.mapping[subject] = localAccount }

// Blacklist bans a subject regardless of mapping.
func (g *Gridmap) Blacklist(subject string) { g.blacklist[subject] = true }

// Unblacklist lifts a ban (site policy churn heals as well as bites).
func (g *Gridmap) Unblacklist(subject string) { delete(g.blacklist, subject) }

// Whitelist admits a subject when UseWhitelist is on.
func (g *Gridmap) Whitelist(subject string) { g.whitelist[subject] = true }

// Authorize returns the local account for an authenticated subject.
func (g *Gridmap) Authorize(subject string) (string, error) {
	if g.blacklist[subject] {
		return "", fmt.Errorf("%w: %q", ErrBlacklisted, subject)
	}
	if g.UseWhitelist && !g.whitelist[subject] {
		return "", fmt.Errorf("%w: %q", ErrNotWhitelisted, subject)
	}
	acct, ok := g.mapping[subject]
	if !ok {
		return "", fmt.Errorf("%w: %q", ErrNoMapping, subject)
	}
	return acct, nil
}

// SitePolicy bundles a site's full GSI configuration: how to
// authenticate, who maps to what, and which VO-level rights the site
// honours at all (sites "retain control over local resources ... by
// specifying and enforcing site-specific usage policies").
type SitePolicy struct {
	Auth    *ChainAuthenticator
	Gridmap *Gridmap
	// HonouredRights lists the VO-level rights this site will act on;
	// nil means all.
	HonouredRights []string
	// TrustedCAS pins community-authorization signing keys by community
	// name; a valid CAS assertion admits a subject with no individual
	// gridmap entry under the community account (the paper's "related
	// Community Authorization Service implements a capability-based
	// service").
	TrustedCAS map[string]*identity.Principal
}

// AdmitWithAssertion admits a subject on the strength of a CAS
// assertion: the credential must authenticate as the assertion's
// subject and carry the action as a right (a proxy restricted to other
// rights stays restricted), the assertion must verify against the pinned
// community key and cover (action, resource), and the subject lands in
// the shared community account. Blacklists still apply — sites retain
// the veto.
func (p *SitePolicy) AdmitWithAssertion(cred *identity.Credential, a *Assertion, action, resource string, now time.Duration) (local, subject string, err error) {
	subject, err = p.Auth.Authenticate(cred, now)
	if err != nil {
		return "", "", err
	}
	if p.Gridmap != nil && p.Gridmap.blacklist[subject] {
		return "", subject, fmt.Errorf("%w: %q", ErrBlacklisted, subject)
	}
	if !cred.HasRight(action) {
		return "", subject, fmt.Errorf("%w: %q", ErrRightDenied, action)
	}
	if a == nil {
		return "", subject, fmt.Errorf("%w: none presented", ErrBadAssertion)
	}
	key, ok := p.TrustedCAS[a.Community]
	if !ok {
		return "", subject, fmt.Errorf("%w: untrusted community %q", ErrBadAssertion, a.Community)
	}
	if err := VerifyAssertion(a, key, now); err != nil {
		return "", subject, err
	}
	if a.Subject != subject {
		return "", subject, fmt.Errorf("%w: assertion for %q presented by %q", ErrBadAssertion, a.Subject, subject)
	}
	if a.Action != action || a.Resource != resource {
		return "", subject, fmt.Errorf("%w: assertion covers (%s,%s), not (%s,%s)",
			ErrBadAssertion, a.Action, a.Resource, action, resource)
	}
	return "community-" + a.Community, subject, nil
}

// Admit runs the full gate: authenticate, check the credential carries the
// required right, check the site honours that right, authorize via
// gridmap. It returns the local account.
func (p *SitePolicy) Admit(cred *identity.Credential, right string, now time.Duration) (local string, subject string, err error) {
	subject, err = p.Auth.Authenticate(cred, now)
	if err != nil {
		return "", "", err
	}
	if right != "" && !cred.HasRight(right) {
		return "", subject, fmt.Errorf("%w: %q", ErrRightDenied, right)
	}
	if right != "" && p.HonouredRights != nil {
		ok := false
		for _, r := range p.HonouredRights {
			if r == right {
				ok = true
				break
			}
		}
		if !ok {
			return "", subject, fmt.Errorf("%w: site does not honour %q", ErrRightDenied, right)
		}
	}
	local, err = p.Gridmap.Authorize(subject)
	if err != nil {
		return "", subject, err
	}
	return local, subject, nil
}

// Assertion is a CAS-issued statement that a community member may perform
// an action on a resource, signed by the community service. It implements
// the capability-style authorization the paper notes CAS provides ("The
// related Community Authorization Service implements a capability-based
// service").
type Assertion struct {
	Community string
	Subject   string
	Action    string
	Resource  string
	NotAfter  time.Duration
	Signature []byte
}

// tbs length-frames every field, as identity.Certificate's encoding does:
// joined by a delimiter, a holder could move bytes between Action and
// Resource ("read","x|y" → "read|x","y") under the same signature.
func (a *Assertion) tbs() []byte {
	var b []byte
	for _, s := range []string{a.Community, a.Subject, a.Action, a.Resource} {
		b = binary.BigEndian.AppendUint32(b, uint32(len(s)))
		b = append(b, s...)
	}
	return binary.BigEndian.AppendUint64(b, uint64(a.NotAfter))
}

// CAS is a Community Authorization Service for one virtual organization.
type CAS struct {
	Community string
	signer    *identity.Principal
	members   map[string]bool
	// grants maps action -> resource-pattern set the community as a whole
	// has been granted by resource providers.
	grants map[string]map[string]bool
}

// NewCAS creates a community service with a fresh signing identity.
func NewCAS(community string, rng *rand.Rand) *CAS {
	return &CAS{
		Community: community,
		signer:    identity.NewPrincipal("cas/"+community, rng),
		members:   make(map[string]bool),
		grants:    make(map[string]map[string]bool),
	}
}

// Signer returns the CAS signing principal (resource providers pin this
// key to verify assertions).
func (c *CAS) Signer() *identity.Principal { return c.signer }

// AddMember enrolls a subject in the community.
func (c *CAS) AddMember(subject string) { c.members[subject] = true }

// Grant records that resource providers allow the community to perform
// action on resource.
func (c *CAS) Grant(action, resource string) {
	if c.grants[action] == nil {
		c.grants[action] = make(map[string]bool)
	}
	c.grants[action][resource] = true
}

// Issue returns a signed assertion for a member, or an error when the
// subject is not a member or the community lacks the grant.
func (c *CAS) Issue(subject, action, resource string, notAfter time.Duration) (*Assertion, error) {
	if !c.members[subject] {
		return nil, fmt.Errorf("gsi: %q is not a member of community %q", subject, c.Community)
	}
	if !c.grants[action][resource] {
		return nil, fmt.Errorf("gsi: community %q has no grant for %s on %s", c.Community, action, resource)
	}
	a := &Assertion{
		Community: c.Community,
		Subject:   subject,
		Action:    action,
		Resource:  resource,
		NotAfter:  notAfter,
	}
	a.Signature = c.signer.Sign(a.tbs())
	return a, nil
}

// VerifyAssertion checks an assertion against the CAS key and the clock.
func VerifyAssertion(a *Assertion, casKey *identity.Principal, now time.Duration) error {
	if now >= a.NotAfter {
		return ErrAssertionExpired
	}
	if !casKey.Verify(a.tbs(), a.Signature) {
		return ErrBadAssertion
	}
	return nil
}
