package gsi

import (
	"errors"
	"math/rand"
	"testing"
	"time"

	"repro/internal/identity"
)

const hour = time.Hour

type fixture struct {
	rng   *rand.Rand
	ca    *identity.CA
	alice *identity.Credential
	bob   *identity.Credential
	auth  *ChainAuthenticator
}

func newFixture() *fixture {
	rng := rand.New(rand.NewSource(3))
	ca := identity.NewCA("ca", 1000*hour, rng)
	a := identity.NewPrincipal("alice", rng)
	b := identity.NewPrincipal("bob", rng)
	return &fixture{
		rng:   rng,
		ca:    ca,
		alice: identity.UserCredential(a, ca.IssueUser(a, 0, 500*hour)),
		bob:   identity.UserCredential(b, ca.IssueUser(b, 0, 500*hour)),
		auth:  &ChainAuthenticator{Verifier: identity.NewVerifier(ca)},
	}
}

func TestChainAuthenticator(t *testing.T) {
	f := newFixture()
	subj, err := f.auth.Authenticate(f.alice, hour)
	if err != nil || subj != "alice" {
		t.Fatalf("Authenticate = (%q, %v)", subj, err)
	}
	// A proxy authenticates as the user who delegated it.
	proxy, err := f.alice.Delegate("alice/proxy", 0, 10*hour, nil, f.rng)
	if err != nil {
		t.Fatal(err)
	}
	if subj, err := f.auth.Authenticate(proxy, hour); err != nil || subj != "alice" {
		t.Errorf("chain auth of proxy = (%q, %v)", subj, err)
	}
	// The refusal is gsi's, the cause stays identity's typed error.
	if _, err := f.auth.Authenticate(f.alice, 600*hour); !errors.Is(err, ErrNotAuthenticated) || !errors.Is(err, identity.ErrExpired) {
		t.Errorf("expired: %v", err)
	}
}

func TestGridmap(t *testing.T) {
	g := NewGridmap()
	g.Map("alice", "u1001")
	if acct, err := g.Authorize("alice"); err != nil || acct != "u1001" {
		t.Fatalf("Authorize = (%q, %v)", acct, err)
	}
	if _, err := g.Authorize("mallory"); !errors.Is(err, ErrNoMapping) {
		t.Errorf("unmapped: %v", err)
	}
}

func TestGridmapBlacklist(t *testing.T) {
	g := NewGridmap()
	g.Map("alice", "u1001")
	g.Blacklist("alice")
	if _, err := g.Authorize("alice"); !errors.Is(err, ErrBlacklisted) {
		t.Errorf("blacklisted: %v", err)
	}
}

func TestGridmapWhitelist(t *testing.T) {
	g := NewGridmap()
	g.Map("alice", "u1001")
	g.Map("bob", "u1002")
	g.UseWhitelist = true
	g.Whitelist("alice")
	if _, err := g.Authorize("alice"); err != nil {
		t.Errorf("whitelisted: %v", err)
	}
	if _, err := g.Authorize("bob"); !errors.Is(err, ErrNotWhitelisted) {
		t.Errorf("not whitelisted: %v", err)
	}
}

func TestSitePolicyAdmit(t *testing.T) {
	f := newFixture()
	g := NewGridmap()
	g.Map("alice", "u1001")
	pol := &SitePolicy{Auth: f.auth, Gridmap: g}
	local, subj, err := pol.Admit(f.alice, "submit", hour)
	if err != nil || local != "u1001" || subj != "alice" {
		t.Fatalf("Admit = (%q, %q, %v)", local, subj, err)
	}
}

func TestSitePolicyRightDenied(t *testing.T) {
	f := newFixture()
	g := NewGridmap()
	g.Map("alice", "u1001")
	pol := &SitePolicy{Auth: f.auth, Gridmap: g}
	// Restricted proxy lacking the needed right.
	p, _ := f.alice.Delegate("p", 0, 10*hour, []string{"query"}, f.rng)
	if _, _, err := pol.Admit(p, "submit", hour); !errors.Is(err, ErrRightDenied) {
		t.Errorf("lacking right: %v", err)
	}
}

func TestSitePolicyHonouredRights(t *testing.T) {
	f := newFixture()
	g := NewGridmap()
	g.Map("alice", "u1001")
	pol := &SitePolicy{Auth: f.auth, Gridmap: g, HonouredRights: []string{"query"}}
	if _, _, err := pol.Admit(f.alice, "submit", hour); !errors.Is(err, ErrRightDenied) {
		t.Errorf("unhonoured right: %v", err)
	}
	if _, _, err := pol.Admit(f.alice, "query", hour); err != nil {
		t.Errorf("honoured right: %v", err)
	}
	// Empty right skips the rights checks entirely.
	if _, _, err := pol.Admit(f.alice, "", hour); err != nil {
		t.Errorf("no right requested: %v", err)
	}
}

func TestCASIssueAndVerify(t *testing.T) {
	f := newFixture()
	cas := NewCAS("physics-vo", f.rng)
	cas.AddMember("alice")
	cas.Grant("read", "srb://dataset1")
	a, err := cas.Issue("alice", "read", "srb://dataset1", 10*hour)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyAssertion(a, cas.Signer(), hour); err != nil {
		t.Errorf("verify: %v", err)
	}
	if err := VerifyAssertion(a, cas.Signer(), 10*hour); !errors.Is(err, ErrAssertionExpired) {
		t.Errorf("expired: %v", err)
	}
}

func TestCASRefusesNonMembers(t *testing.T) {
	f := newFixture()
	cas := NewCAS("vo", f.rng)
	cas.Grant("read", "r")
	if _, err := cas.Issue("mallory", "read", "r", hour); err == nil {
		t.Error("non-member issued assertion")
	}
}

func TestCASRefusesUngranted(t *testing.T) {
	f := newFixture()
	cas := NewCAS("vo", f.rng)
	cas.AddMember("alice")
	if _, err := cas.Issue("alice", "write", "r", hour); err == nil {
		t.Error("ungranted action issued")
	}
}

func TestCASAssertionTamperDetected(t *testing.T) {
	f := newFixture()
	cas := NewCAS("vo", f.rng)
	cas.AddMember("alice")
	cas.Grant("read", "r")
	a, _ := cas.Issue("alice", "read", "r", 10*hour)
	a.Subject = "mallory"
	if err := VerifyAssertion(a, cas.Signer(), hour); !errors.Is(err, ErrBadAssertion) {
		t.Errorf("tampered assertion: %v", err)
	}
}

// TestCASAssertionFieldsAreFramed: the signed encoding used to join the
// fields with "|", so the holder of an assertion for ("read", "x|y") could
// move the boundary and present it, same signature, as ("read|x", "y").
func TestCASAssertionFieldsAreFramed(t *testing.T) {
	f := newFixture()
	cas := NewCAS("vo", f.rng)
	cas.AddMember("alice")
	cas.Grant("read", "x|y")
	a, err := cas.Issue("alice", "read", "x|y", 10*hour)
	if err != nil {
		t.Fatal(err)
	}
	pol := &SitePolicy{
		Auth:       f.auth,
		Gridmap:    NewGridmap(),
		TrustedCAS: map[string]*identity.Principal{"vo": cas.Signer()},
	}
	if _, _, err := pol.AdmitWithAssertion(f.alice, a, "read", "x|y", hour); err != nil {
		t.Fatalf("as issued: %v", err)
	}
	a.Action, a.Resource = "read|x", "y"
	if err := VerifyAssertion(a, cas.Signer(), hour); !errors.Is(err, ErrBadAssertion) {
		t.Errorf("rewritten fields verify: %v", err)
	}
	if _, _, err := pol.AdmitWithAssertion(f.alice, a, "read|x", "y", hour); !errors.Is(err, ErrBadAssertion) {
		t.Errorf("rewritten fields admitted: %v", err)
	}
}

func TestAdmitWithAssertion(t *testing.T) {
	f := newFixture()
	cas := NewCAS("physics-vo", f.rng)
	cas.AddMember("alice")
	cas.Grant("read", "srb://dataset1")
	a, err := cas.Issue("alice", "read", "srb://dataset1", 10*hour)
	if err != nil {
		t.Fatal(err)
	}
	pol := &SitePolicy{
		Auth:       f.auth,
		Gridmap:    NewGridmap(), // alice has NO individual mapping
		TrustedCAS: map[string]*identity.Principal{"physics-vo": cas.Signer()},
	}
	local, subj, err := pol.AdmitWithAssertion(f.alice, a, "read", "srb://dataset1", hour)
	if err != nil {
		t.Fatal(err)
	}
	if local != "community-physics-vo" || subj != "alice" {
		t.Errorf("admit = (%q, %q)", local, subj)
	}
	// The plain path still refuses her (no gridmap entry).
	if _, _, err := pol.Admit(f.alice, "", hour); !errors.Is(err, ErrNoMapping) {
		t.Errorf("plain admit: %v", err)
	}
}

func TestAdmitWithAssertionRejections(t *testing.T) {
	f := newFixture()
	cas := NewCAS("vo", f.rng)
	cas.AddMember("alice")
	cas.Grant("read", "r1")
	a, _ := cas.Issue("alice", "read", "r1", 10*hour)
	pol := &SitePolicy{
		Auth:       f.auth,
		Gridmap:    NewGridmap(),
		TrustedCAS: map[string]*identity.Principal{"vo": cas.Signer()},
	}
	// Wrong presenter: bob shows alice's assertion.
	if _, _, err := pol.AdmitWithAssertion(f.bob, a, "read", "r1", hour); !errors.Is(err, ErrBadAssertion) {
		t.Errorf("wrong presenter: %v", err)
	}
	// Wrong action/resource.
	if _, _, err := pol.AdmitWithAssertion(f.alice, a, "write", "r1", hour); !errors.Is(err, ErrBadAssertion) {
		t.Errorf("wrong action: %v", err)
	}
	if _, _, err := pol.AdmitWithAssertion(f.alice, a, "read", "r2", hour); !errors.Is(err, ErrBadAssertion) {
		t.Errorf("wrong resource: %v", err)
	}
	// Untrusted community.
	other := &SitePolicy{Auth: f.auth, Gridmap: NewGridmap()}
	if _, _, err := other.AdmitWithAssertion(f.alice, a, "read", "r1", hour); !errors.Is(err, ErrBadAssertion) {
		t.Errorf("untrusted cas: %v", err)
	}
	// No assertion at all (used to dereference nil inside the gatekeeper).
	if _, subj, err := pol.AdmitWithAssertion(f.alice, nil, "read", "r1", hour); !errors.Is(err, ErrBadAssertion) || subj != "alice" {
		t.Errorf("nil assertion: (%q, %v)", subj, err)
	}
	// A proxy restricted to other rights cannot use the assertion.
	narrow, _ := f.alice.Delegate("alice/query-only", 0, 10*hour, []string{"query"}, f.rng)
	if _, _, err := pol.AdmitWithAssertion(narrow, a, "read", "r1", hour); !errors.Is(err, ErrRightDenied) {
		t.Errorf("restricted proxy: %v", err)
	}
	// Expired assertion.
	if _, _, err := pol.AdmitWithAssertion(f.alice, a, "read", "r1", 11*hour); !errors.Is(err, ErrAssertionExpired) {
		t.Errorf("expired: %v", err)
	}
	// Site veto: blacklist beats the community grant.
	pol.Gridmap.Blacklist("alice")
	if _, _, err := pol.AdmitWithAssertion(f.alice, a, "read", "r1", hour); !errors.Is(err, ErrBlacklisted) {
		t.Errorf("blacklisted: %v", err)
	}
}
