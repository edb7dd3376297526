// Package sharp implements SHARP [Fu, Chase, Chun, Schwab, Vahdat, SOSP
// 2003], the secure resource-peering architecture the paper presents as
// PlanetLab's emerging VO-level resource manager (Figure 2): sites issue
// cryptographically signed *tickets* (soft claims) to brokers ("agents"),
// agents subdivide and resell tickets to service managers, and a ticket
// becomes a hard *lease* only when redeemed at its issuing site authority.
// Because tickets are soft, an authority may deliberately oversubscribe;
// conflicts then surface as redeem-time rejections — the tradeoff the E9
// experiment sweeps.
//
// Every delegation step is a signed claim chained to its parent by hash,
// so a forged, widened, or replayed ticket fails verification — "SHARP
// ... develops its own trust delegation and authentication mechanisms in
// the PlanetLab context."
package sharp

import (
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"time"

	"repro/internal/capability"
	"repro/internal/identity"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Protocol errors.
var (
	ErrBadChain      = errors.New("sharp: claim chain invalid")
	ErrBadSignature  = errors.New("sharp: claim signature invalid")
	ErrAmountWidened = errors.New("sharp: claim exceeds parent amount")
	ErrIntervalGrew  = errors.New("sharp: claim interval outside parent")
	ErrExpired       = errors.New("sharp: ticket not current")
	ErrConflict      = errors.New("sharp: redeem conflict (oversubscribed)")
	ErrDoubleSpend   = errors.New("sharp: ticket already redeemed")
	// ErrReplayed is the typed rejection for presenting an
	// already-redeemed leaf claim again (the client replay attack).
	// Errors carrying it also carry ErrDoubleSpend, so callers checking
	// either sentinel agree.
	ErrReplayed     = errors.New("sharp: redeemed ticket replayed")
	ErrOverIssue    = errors.New("sharp: issue would exceed oversell bound")
	ErrNotHolder    = errors.New("sharp: delegator is not the ticket holder")
	ErrInventory    = errors.New("sharp: agent inventory insufficient")
	ErrWrongSite    = errors.New("sharp: ticket names a different site")
	ErrUnknownLease = errors.New("sharp: unknown or released lease")
	ErrRenewAmount  = errors.New("sharp: renewal tickets cover less than the lease amount")
	ErrRenewGap     = errors.New("sharp: renewal ticket starts after the lease ends")
	ErrNotExtended  = errors.New("sharp: renewal does not extend the lease")
)

// RedeemGrace is the near-expiry guard on redeem and renew: a ticket
// whose leaf expires within one delivery quantum of the verification
// clock is rejected as ErrExpired outright. Without it, a redeem racing
// notAfter by less than one engine tick would succeed or fail depending
// on event-queue ordering — legal either way, but not deterministic
// under instrumentation-induced reorderings. One millisecond is simnet's
// minimum propagation delay, so no remote caller can observe the
// difference.
const RedeemGrace = time.Millisecond

// Replay-cache sizing: the per-authority redeemed-leaf cache holds at
// most replayCap entries before each insert prunes entries whose leaf
// expired more than replaySlack ago. The slack keeps an entry alive
// across any plausible clock-skew window — a pruned entry's ticket must
// be so stale that Verify rejects it as ErrExpired under every skew the
// fault injector models, so pruning can never re-admit a replay.
const (
	defaultReplayCap = 4096
	replaySlack      = 72 * time.Hour
)

// replayCache is the authority's redeemed-serial memory: leaf claim
// hash -> leaf NotAfter. Bounded: once len reaches its cap, inserting
// prunes safely-expired entries (see replaySlack). Entries for live
// tickets are never evicted, so a double redeem is rejected
// deterministically for as long as the ticket itself could still
// verify.
type replayCache struct {
	cap     int
	entries map[[32]byte]time.Duration
	// PrunedN counts evicted entries (observability for soak tests).
	PrunedN int
}

func newReplayCache(capN int) *replayCache {
	if capN <= 0 {
		capN = defaultReplayCap
	}
	return &replayCache{cap: capN, entries: make(map[[32]byte]time.Duration)}
}

// seen reports whether a leaf hash was already redeemed.
func (rc *replayCache) seen(h [32]byte) bool {
	_, ok := rc.entries[h]
	return ok
}

// add marks a leaf hash redeemed, pruning first when at capacity.
func (rc *replayCache) add(h [32]byte, notAfter, now time.Duration) {
	if len(rc.entries) >= rc.cap {
		rc.prune(now)
	}
	rc.entries[h] = notAfter
}

// prune drops entries whose leaf expired more than replaySlack before
// now. Map iteration order is irrelevant: the delete condition is
// per-entry and the count is a plain sum.
func (rc *replayCache) prune(now time.Duration) int {
	n := 0
	for h, notAfter := range rc.entries {
		if notAfter+replaySlack <= now {
			delete(rc.entries, h)
			n++
		}
	}
	rc.PrunedN += n
	return n
}

// Claim is one signed delegation step.
type Claim struct {
	Site       string
	Type       capability.ResourceType
	Amount     float64
	NotBefore  time.Duration
	NotAfter   time.Duration
	Issuer     string
	IssuerKey  ed25519.PublicKey
	Holder     string
	HolderKey  ed25519.PublicKey
	Serial     uint64
	ParentHash [32]byte // zero for root claims
	Sig        []byte
}

// tbs returns the claim's canonical to-be-signed encoding in one slice
// of exactly its length.
func (c *Claim) tbs() []byte { return c.appendTBS(make([]byte, 0, c.tbsLen())) }

// tbsLen is the length of the encoding appendTBS writes: three
// length-prefixed strings, two raw keys, five 8-byte words and the parent
// hash.
func (c *Claim) tbsLen() int {
	return 3*4 + len(c.Site) + len(c.Issuer) + len(c.Holder) +
		len(c.IssuerKey) + len(c.HolderKey) + 5*8 + len(c.ParentHash)
}

// appendTBS appends the to-be-signed encoding to b.
func (c *Claim) appendTBS(b []byte) []byte {
	str := func(b []byte, s string) []byte {
		return append(binary.BigEndian.AppendUint32(b, uint32(len(s))), s...)
	}
	b = str(b, c.Site)
	b = binary.BigEndian.AppendUint64(b, uint64(c.Type))
	b = binary.BigEndian.AppendUint64(b, math.Float64bits(c.Amount))
	b = binary.BigEndian.AppendUint64(b, uint64(c.NotBefore))
	b = binary.BigEndian.AppendUint64(b, uint64(c.NotAfter))
	b = str(b, c.Issuer)
	b = append(b, c.IssuerKey...)
	b = str(b, c.Holder)
	b = append(b, c.HolderKey...)
	b = binary.BigEndian.AppendUint64(b, c.Serial)
	return append(b, c.ParentHash[:]...)
}

// Hash returns the claim's chaining digest (covers the signature so a
// re-signed claim is a different node). It encodes into a stack buffer
// that holds any claim with names of a few dozen bytes; a longer one
// spills to the heap and hashes the same bytes.
func (c *Claim) Hash() [32]byte {
	var buf [384]byte
	return sha256.Sum256(append(c.appendTBS(buf[:0]), c.Sig...))
}

// amountWithin reports whether x is a positive amount no larger than a
// finite limit. Every amount check goes through it because a comparison
// with NaN is false: "x <= 0 || x > limit" lets NaN through, and a NaN
// lease turns the node manager's committed total (and so its admission
// control) into NaN for the rest of the run.
func amountWithin(x, limit float64) bool {
	return x > 0 && x <= limit && limit <= math.MaxFloat64
}

// Ticket is a chain of claims from a site authority (chain[0]) to the
// current holder (last element).
type Ticket struct {
	Chain []Claim
}

// Leaf returns the chain's final claim.
func (t *Ticket) Leaf() *Claim {
	if len(t.Chain) == 0 {
		return nil
	}
	return &t.Chain[len(t.Chain)-1]
}

// Root returns the authority-issued claim.
func (t *Ticket) Root() *Claim {
	if len(t.Chain) == 0 {
		return nil
	}
	return &t.Chain[0]
}

// Verify checks the whole chain against the pinned authority key: every
// signature, hash link, amount narrowing, and interval nesting. It is the
// holder-side form: every link pays its ed25519.Verify.
func (t *Ticket) Verify(authorityKey ed25519.PublicKey, now time.Duration) error {
	return t.verify(authorityKey, now, nil)
}

// verify is the one chain walk. Link signatures resolve through cache —
// the authority's memo of triples that already proved valid, so chains
// sharing links (one stocked ticket resold many times) skip the repeated
// ed25519 math; a nil cache verifies every link directly. Results do
// not depend on the cache (see identity.SigCache).
func (t *Ticket) verify(authorityKey ed25519.PublicKey, now time.Duration, cache *identity.SigCache) error {
	if len(t.Chain) == 0 {
		return fmt.Errorf("%w: empty", ErrBadChain)
	}
	root := t.Root()
	if !authorityKey.Equal(root.IssuerKey) {
		return fmt.Errorf("%w: root not issued by authority", ErrBadChain)
	}
	for i := range t.Chain {
		c := &t.Chain[i]
		if !cache.Verify(c.IssuerKey, c.tbs(), c.Sig) {
			return fmt.Errorf("%w: link %d", ErrBadSignature, i)
		}
		if i == 0 {
			if c.ParentHash != ([32]byte{}) {
				return fmt.Errorf("%w: root has a parent", ErrBadChain)
			}
			if !amountWithin(c.Amount, math.MaxFloat64) {
				return fmt.Errorf("%w: root amount %v", ErrBadChain, c.Amount)
			}
			continue
		}
		parent := &t.Chain[i-1]
		if !parent.HolderKey.Equal(ed25519.PublicKey(c.IssuerKey)) {
			return fmt.Errorf("%w: link %d issuer is not parent holder", ErrBadChain, i)
		}
		if c.ParentHash != parent.Hash() {
			return fmt.Errorf("%w: link %d parent hash mismatch", ErrBadChain, i)
		}
		if !amountWithin(c.Amount, parent.Amount) {
			return fmt.Errorf("%w: link %d %v not in (0, %v]", ErrAmountWidened, i, c.Amount, parent.Amount)
		}
		if c.NotBefore < parent.NotBefore || c.NotAfter > parent.NotAfter {
			return fmt.Errorf("%w: link %d", ErrIntervalGrew, i)
		}
		if c.Site != parent.Site || c.Type != parent.Type {
			return fmt.Errorf("%w: link %d changes site/type", ErrBadChain, i)
		}
	}
	leaf := t.Leaf()
	if now < leaf.NotBefore || now >= leaf.NotAfter {
		return ErrExpired
	}
	return nil
}

// Delegate appends a claim transferring amount (≤ leaf amount) over a
// sub-interval to a new holder, signed by the current holder's key.
func (t *Ticket) Delegate(holder *identity.Principal, newHolderName string, newHolderKey ed25519.PublicKey, amount float64, notBefore, notAfter time.Duration, serial uint64) (*Ticket, error) {
	leaf := t.Leaf()
	if leaf == nil {
		return nil, fmt.Errorf("%w: empty", ErrBadChain)
	}
	if !leaf.HolderKey.Equal(holder.Public()) {
		return nil, ErrNotHolder
	}
	if !amountWithin(amount, leaf.Amount) {
		return nil, fmt.Errorf("%w: %v of %v", ErrAmountWidened, amount, leaf.Amount)
	}
	if notBefore < leaf.NotBefore || notAfter > leaf.NotAfter || notAfter <= notBefore {
		return nil, ErrIntervalGrew
	}
	c := Claim{
		Site:       leaf.Site,
		Type:       leaf.Type,
		Amount:     amount,
		NotBefore:  notBefore,
		NotAfter:   notAfter,
		Issuer:     leaf.Holder,
		IssuerKey:  holder.Public(),
		Holder:     newHolderName,
		HolderKey:  newHolderKey,
		Serial:     serial,
		ParentHash: leaf.Hash(),
	}
	c.Sig = holder.Sign(c.tbs())
	chain := append(append([]Claim(nil), t.Chain...), c)
	return &Ticket{Chain: chain}, nil
}

// Lease is a hard claim: the authority has committed concrete resources,
// backed by a dedicated capability minted at the site's node manager.
type Lease struct {
	ID        string
	Site      string
	Type      capability.ResourceType
	Amount    float64
	NotBefore time.Duration
	NotAfter  time.Duration
	CapID     capability.ID
}

// Authority is a site's SHARP root: it issues tickets against its
// capacity (scaled by OversellFactor) and converts valid tickets to
// leases while capacity remains.
type Authority struct {
	Site string
	// OversellFactor >= 1 scales how many soft claims the authority
	// issues relative to hard capacity (1.0 = conservative, no redeem
	// conflicts from its own issuance).
	OversellFactor float64

	eng      *sim.Engine
	signer   *identity.Principal
	nm       *capability.NodeManager
	capacity map[capability.ResourceType]float64
	issued   map[capability.ResourceType]float64
	replay   *replayCache
	sigCache *identity.SigCache
	serial   uint64
	leaseSeq int
	skew     time.Duration

	// Lease state: one audit record per live lease, in a flat slot slice.
	// recordOf maps a live lease's ID to its slot. ReleaseLease deletes
	// the ID, zeroes the slot and pushes it on the free list in one call,
	// so an ID resolves if and only if its lease is live, and memory
	// tracks peak concurrency rather than every lease ever granted.
	leaseRecs []LeaseRecord
	leaseFree []int32
	recordOf  map[string]int32

	// IssuedN, RedeemOK, RedeemConflict count outcomes for E9, and
	// IssueRej/RedeemRej the issue and redeem requests refused outright;
	// RenewOK/RenewRej count lease renewals. ReplayRejN counts redeems
	// and renewals rejected by the replay cache — the byzantine sweeps'
	// double-spend evidence.
	IssuedN, RedeemOK, RedeemConflict int
	IssueRej, RedeemRej               int
	RenewOK, RenewRej                 int
	ReplayRejN                        int

	// BatchSigN counts link signatures presented through RedeemBatch;
	// BatchVerifiedN counts how many actually cost an ed25519.Verify
	// after memoization — the amortization evidence the throughput
	// gates assert on deterministically.
	BatchSigN, BatchVerifiedN int

	// tr records spans when installed (nil: tracing off).
	tr *obs.Tracer
}

// LeaseRecord is the authority-side audit entry for one live lease: the
// lease plus the ticket terms it was redeemed or last renewed under.
// Invariant checkers use it to prove no live lease outlives its ticket's
// term. A released lease has no record.
type LeaseRecord struct {
	Lease         *Lease
	LeafNotBefore time.Duration
	LeafNotAfter  time.Duration
	RootNotAfter  time.Duration
	RedeemedAt    time.Duration
	// Renewals counts successful Renew calls against this lease; the
	// leaf/root terms above advance with each one so the containment
	// invariant keeps holding against the freshest redeemed ticket.
	Renewals      int
	LastRenewedAt time.Duration
}

// allocLeaseSlot pops a free slot or appends one.
func (a *Authority) allocLeaseSlot() int32 {
	if n := len(a.leaseFree); n > 0 {
		i := a.leaseFree[n-1]
		a.leaseFree = a.leaseFree[:n-1]
		return i
	}
	a.leaseRecs = append(a.leaseRecs, LeaseRecord{})
	return int32(len(a.leaseRecs) - 1)
}

// NewAuthority creates a site authority over the given capacity. The
// node manager enforces hard allocations; its dedicated capacity for each
// type must match `cap` (the caller typically builds both together).
func NewAuthority(eng *sim.Engine, site string, signer *identity.Principal, nm *capability.NodeManager, capacity map[capability.ResourceType]float64) *Authority {
	capCopy := make(map[capability.ResourceType]float64, len(capacity))
	for k, v := range capacity {
		capCopy[k] = v
	}
	return &Authority{
		Site:           site,
		OversellFactor: 1,
		eng:            eng,
		signer:         signer,
		nm:             nm,
		capacity:       capCopy,
		issued:         make(map[capability.ResourceType]float64),
		replay:         newReplayCache(defaultReplayCap),
		sigCache:       identity.NewSigCache(identity.DefaultSigCacheCap),
		recordOf:       make(map[string]int32),
	}
}

// SetCompactLeases does nothing: the lease store always recycles a
// released lease's slot.
//
// Deprecated: the lease store has one mode; remaining callers should drop
// the call.
func (a *Authority) SetCompactLeases(bool) {}

// LiveLeases reports how many leases are currently granted and not
// released.
func (a *Authority) LiveLeases() int { return len(a.recordOf) }

// LeaseSlots reports the lease store's slot capacity. Released slots are
// reused, so it tracks peak concurrency, not cumulative grants.
func (a *Authority) LeaseSlots() int { return len(a.leaseRecs) }

// SigCacheStats reports the verification memo's counters (hits, misses,
// generation evictions).
func (a *Authority) SigCacheStats() (hits, misses, evictions int) {
	return a.sigCache.Hits, a.sigCache.Misses, a.sigCache.Evictions
}

// SetTracer installs an observability tracer, which reads the outcome
// counts as sharp.* counters. A nil tracer (the default) keeps every
// instrumentation point inert.
func (a *Authority) SetTracer(tr *obs.Tracer) {
	a.tr = tr
	tr.CounterFunc("sharp.tickets.issued", func() uint64 { return uint64(a.IssuedN) })
	tr.CounterFunc("sharp.tickets.rejected", func() uint64 { return uint64(a.IssueRej) })
	tr.CounterFunc("sharp.redeem.ok", func() uint64 { return uint64(a.RedeemOK) })
	tr.CounterFunc("sharp.redeem.conflict", func() uint64 { return uint64(a.RedeemConflict) })
	tr.CounterFunc("sharp.redeem.rejected", func() uint64 { return uint64(a.RedeemRej) })
	tr.CounterFunc("sharp.renew.ok", func() uint64 { return uint64(a.RenewOK) })
	tr.CounterFunc("sharp.renew.rejected", func() uint64 { return uint64(a.RenewRej) })
}

// SetClockSkew skews the authority's validity clock: Redeem verifies
// tickets at Now()+d instead of Now(). Fault injection uses it to model a
// site whose certificate clock has drifted — tickets reject as expired
// (positive skew) or not yet valid (negative skew) while the drift lasts.
func (a *Authority) SetClockSkew(d time.Duration) { a.skew = d }

// SetOversellFactor adjusts the soft-claim issue budget. Exists so
// callers holding the authority behind the broker.SiteAuthority
// interface (which byzantine wrappers also satisfy) can tune it.
func (a *Authority) SetOversellFactor(f float64) { a.OversellFactor = f }

// EachLeaseRecord calls fn with each live lease's audit record in slot
// order, without copying the store. fn must not grant or release a
// lease of this authority.
func (a *Authority) EachLeaseRecord(fn func(LeaseRecord)) {
	for i := range a.leaseRecs {
		if a.leaseRecs[i].Lease != nil {
			fn(a.leaseRecs[i])
		}
	}
}

// Ledger returns the authority itself. A wrapper that embeds an
// Authority (internal/adversary) promotes it, so an audit holding any
// broker.SiteAuthority walks the lease store behind the site by a direct
// call.
func (a *Authority) Ledger() *Authority { return a }

// IssueTicket mints a root ticket for a holder, bounded by the oversell
// budget: sum of issued soft claims <= capacity × OversellFactor.
func (a *Authority) IssueTicket(holderName string, holderKey ed25519.PublicKey, typ capability.ResourceType, amount float64, notBefore, notAfter time.Duration) (*Ticket, error) {
	var span obs.SpanContext
	if a.tr != nil {
		span = a.tr.Begin("sharp.issue",
			obs.String("site", a.Site), obs.String("holder", holderName),
			obs.String("type", typ.String()), obs.Float("amount", amount))
	}
	reject := func(err error) (*Ticket, error) {
		a.IssueRej++
		span.End(obs.Err(err))
		return nil, err
	}
	if !amountWithin(amount, math.MaxFloat64) || notAfter <= notBefore {
		return reject(fmt.Errorf("sharp: bad issue request (amount %v, interval [%v,%v))", amount, notBefore, notAfter))
	}
	budget := a.capacity[typ] * a.OversellFactor
	if a.issued[typ]+amount > budget {
		return reject(fmt.Errorf("%w: issued %.1f + %.1f > %.1f", ErrOverIssue, a.issued[typ], amount, budget))
	}
	a.issued[typ] += amount
	a.serial++
	c := Claim{
		Site:      a.Site,
		Type:      typ,
		Amount:    amount,
		NotBefore: notBefore,
		NotAfter:  notAfter,
		Issuer:    a.signer.Name,
		IssuerKey: a.signer.Public(),
		Holder:    holderName,
		HolderKey: holderKey,
		Serial:    a.serial,
	}
	c.Sig = a.signer.Sign(c.tbs())
	a.IssuedN++
	span.End(obs.Int("serial", int(a.serial)))
	return &Ticket{Chain: []Claim{c}}, nil
}

// Redeem converts a ticket to a lease: verify the chain, reject double
// spends, then try to commit hard capacity at the node manager. Failure
// to commit is the oversubscription conflict of Figure 2's step 5-6.
// Chain signatures resolve through the authority's verification memo,
// so re-presented prefixes (the same stocked ticket resold many times)
// cost one ed25519.Verify ever, not one per redeem.
func (a *Authority) Redeem(t *Ticket) (*Lease, error) {
	var span obs.SpanContext
	if a.tr != nil {
		attrs := []obs.Attr{obs.String("site", a.Site)}
		if leaf := t.Leaf(); leaf != nil {
			attrs = append(attrs,
				obs.String("holder", leaf.Holder),
				obs.String("type", leaf.Type.String()),
				obs.Float("amount", leaf.Amount))
		}
		span = a.tr.Begin("sharp.redeem", attrs...)
	}
	reject := func(err error) (*Lease, error) {
		a.RedeemRej++
		span.End(obs.Err(err))
		return nil, err
	}
	now := a.eng.Now() + a.skew
	if t.Root() != nil && t.Root().Site != a.Site {
		return reject(ErrWrongSite)
	}
	if err := t.verify(a.signer.Public(), now, a.sigCache); err != nil {
		return reject(err)
	}
	leaf := t.Leaf()
	if leaf.NotAfter-now <= RedeemGrace {
		return reject(fmt.Errorf("%w: %v left of ticket term is inside the %v redeem grace",
			ErrExpired, leaf.NotAfter-now, RedeemGrace))
	}
	h := leaf.Hash()
	if a.replay.seen(h) {
		a.ReplayRejN++
		return reject(fmt.Errorf("%w (%w): leaf serial %d", ErrReplayed, ErrDoubleSpend, leaf.Serial))
	}
	cap_, err := a.nm.Mint(capability.MintRequest{
		Type:      leaf.Type,
		Amount:    leaf.Amount,
		Dedicated: true,
		NotBefore: leaf.NotBefore,
		NotAfter:  leaf.NotAfter,
	})
	if err != nil {
		a.RedeemConflict++
		err = fmt.Errorf("%w: %v", ErrConflict, err)
		span.End(obs.Err(err))
		return nil, err
	}
	a.replay.add(h, leaf.NotAfter, a.eng.Now())
	a.leaseSeq++
	a.RedeemOK++
	lease := &Lease{
		ID:        fmt.Sprintf("%s/lease%d", a.Site, a.leaseSeq),
		Site:      a.Site,
		Type:      leaf.Type,
		Amount:    leaf.Amount,
		NotBefore: leaf.NotBefore,
		NotAfter:  leaf.NotAfter,
		CapID:     cap_.ID,
	}
	i := a.allocLeaseSlot()
	a.leaseRecs[i] = LeaseRecord{
		Lease:         lease,
		LeafNotBefore: leaf.NotBefore,
		LeafNotAfter:  leaf.NotAfter,
		RootNotAfter:  t.Root().NotAfter,
		RedeemedAt:    a.eng.Now(),
	}
	a.recordOf[lease.ID] = i
	span.End(obs.String("lease", lease.ID))
	return lease, nil
}

// RedeemResult pairs one batch entry's outcome with its position.
type RedeemResult struct {
	Lease *Lease
	Err   error
}

// RedeemBatch is Redeem over tickets in input order (a nil ticket is
// ErrBadChain), counting the batch's amortization: the verification
// memo is keyed on the exact signature triple, so links the batch
// repeats — tickets resold from one stocked ticket share their whole
// prefix — pay one ed25519.Verify between them.
func (a *Authority) RedeemBatch(tickets []*Ticket) []RedeemResult {
	out := make([]RedeemResult, len(tickets))
	misses := a.sigCache.Misses
	for i, t := range tickets {
		if t == nil {
			out[i].Err = fmt.Errorf("%w: nil ticket", ErrBadChain)
			continue
		}
		a.BatchSigN += len(t.Chain)
		out[i].Lease, out[i].Err = a.Redeem(t)
	}
	a.BatchVerifiedN += a.sigCache.Misses - misses
	return out
}

// ReleaseLease returns a lease's resources (service teardown) and
// recycles its audit slot. Releasing an unknown or already released lease
// is inert.
func (a *Authority) ReleaseLease(l *Lease) {
	a.nm.Release(l.CapID)
	i, ok := a.recordOf[l.ID]
	if !ok {
		return
	}
	delete(a.recordOf, l.ID)
	a.leaseRecs[i] = LeaseRecord{}
	a.leaseFree = append(a.leaseFree, i)
}

// Renew extends a live lease using fresh tickets — the soft-state
// refresh the paper's short-lifetime tradeoff presumes. The holder
// presents one or more valid tickets for the same site/type whose
// amounts sum to at least the lease amount; the lease (and its backing
// capability) is extended to the earliest of the tickets' leaf expiries,
// and each ticket is marked spent. No new capacity is committed — the
// lease keeps the resources it holds, just for longer — so renewal can
// never fail on a capacity conflict, only on verification.
//
// Containment bookkeeping: the lease's audit record advances its
// leaf/root terms to the renewal tickets' (so the lease-term invariant
// keeps holding), increments Renewals, and stamps LastRenewedAt.
func (a *Authority) Renew(leaseID string, tickets ...*Ticket) (*Lease, error) {
	var span obs.SpanContext
	if a.tr != nil {
		span = a.tr.Begin("sharp.renew",
			obs.String("site", a.Site), obs.String("lease", leaseID),
			obs.Int("tickets", len(tickets)))
	}
	fail := func(err error) (*Lease, error) {
		a.RenewRej++
		span.End(obs.Err(err))
		return nil, err
	}
	i, ok := a.recordOf[leaseID]
	if !ok {
		return fail(fmt.Errorf("%w: %s", ErrUnknownLease, leaseID))
	}
	rec := &a.leaseRecs[i]
	lease := rec.Lease
	now := a.eng.Now() + a.skew
	if now >= lease.NotAfter {
		return fail(fmt.Errorf("%w: lease lapsed at %v", ErrExpired, lease.NotAfter))
	}
	if len(tickets) == 0 {
		return fail(fmt.Errorf("%w: no tickets presented", ErrRenewAmount))
	}
	var total float64
	target := time.Duration(1<<63 - 1)
	rootNotAfter := target
	for _, t := range tickets {
		if t.Root() != nil && t.Root().Site != a.Site {
			return fail(ErrWrongSite)
		}
		if err := t.verify(a.signer.Public(), now, a.sigCache); err != nil {
			return fail(err)
		}
		leaf := t.Leaf()
		if leaf.NotAfter-now <= RedeemGrace {
			return fail(fmt.Errorf("%w: %v left of ticket term is inside the %v redeem grace",
				ErrExpired, leaf.NotAfter-now, RedeemGrace))
		}
		if leaf.Type != lease.Type {
			return fail(fmt.Errorf("%w: ticket type %v, lease type %v", ErrBadChain, leaf.Type, lease.Type))
		}
		if leaf.NotBefore > lease.NotAfter {
			return fail(fmt.Errorf("%w: ticket starts %v, lease ends %v", ErrRenewGap, leaf.NotBefore, lease.NotAfter))
		}
		if a.replay.seen(leaf.Hash()) {
			a.ReplayRejN++
			return fail(fmt.Errorf("%w (%w): leaf serial %d", ErrReplayed, ErrDoubleSpend, leaf.Serial))
		}
		total += leaf.Amount
		if leaf.NotAfter < target {
			target = leaf.NotAfter
		}
		if t.Root().NotAfter < rootNotAfter {
			rootNotAfter = t.Root().NotAfter
		}
	}
	if total < lease.Amount-1e-9 {
		return fail(fmt.Errorf("%w: tickets total %.2f, lease %.2f", ErrRenewAmount, total, lease.Amount))
	}
	if target <= lease.NotAfter {
		return fail(fmt.Errorf("%w: tickets end %v, lease already ends %v", ErrNotExtended, target, lease.NotAfter))
	}
	if err := a.nm.Extend(lease.CapID, target); err != nil {
		return fail(err)
	}
	for _, t := range tickets {
		a.replay.add(t.Leaf().Hash(), t.Leaf().NotAfter, a.eng.Now())
	}
	lease.NotAfter = target
	if target > rec.LeafNotAfter {
		rec.LeafNotAfter = target
	}
	if rootNotAfter > rec.RootNotAfter {
		rec.RootNotAfter = rootNotAfter
	}
	rec.Renewals++
	rec.LastRenewedAt = a.eng.Now()
	a.RenewOK++
	span.End(obs.Dur("not_after", target))
	return lease, nil
}

// Agent is a SHARP broker: it accumulates tickets from site authorities
// and resells subdivided tickets to service managers, tracking what is
// left of each acquired ticket.
type Agent struct {
	Name string

	signer *identity.Principal
	serial uint64
	// stock holds acquired tickets with an unsold remainder, in
	// acquisition order. An entry sold down to exactly 0 leaves, so a
	// scan costs the live stock, not every ticket ever acquired.
	stock []stockEntry

	// SoldN counts delegations to service managers.
	SoldN int
}

type stockEntry struct {
	ticket    *Ticket
	remaining float64
}

// NewAgent creates a broker around an existing signing principal.
func NewAgent(signer *identity.Principal) *Agent {
	return &Agent{Name: signer.Name, signer: signer}
}

// Key returns the agent's public key (authorities issue tickets to it).
func (ag *Agent) Key() ed25519.PublicKey { return ag.signer.Public() }

// SellerName identifies the agent on a ticket exchange (it is the
// honest implementation of broker.Seller).
func (ag *Agent) SellerName() string { return ag.Name }

// Acquire stores a ticket issued to this agent (Figure 2 steps 1-2).
func (ag *Agent) Acquire(t *Ticket) error {
	leaf := t.Leaf()
	if leaf == nil || !leaf.HolderKey.Equal(ag.signer.Public()) {
		return ErrNotHolder
	}
	ag.stock = append(ag.stock, stockEntry{ticket: t, remaining: leaf.Amount})
	return nil
}

// Inventory returns the unsold amount held for a site and type.
func (ag *Agent) Inventory(site string, typ capability.ResourceType) float64 {
	total := 0.0
	for _, s := range ag.stock {
		leaf := s.ticket.Leaf()
		if leaf.Site == site && leaf.Type == typ {
			total += s.remaining
		}
	}
	return total
}

// Sell delegates amount from stock to a buyer (Figure 2 steps 3-4),
// possibly spanning multiple stocked tickets; each produces one
// delegated ticket over the requested window clamped to its own. The
// sale is all or nothing: every piece is planned before any is signed,
// an entry whose clamped window is empty is skipped, and if the rest
// cannot cover amount Sell returns ErrInventory with stock untouched.
func (ag *Agent) Sell(buyerName string, buyerKey ed25519.PublicKey, site string, typ capability.ResourceType, amount float64, notBefore, notAfter time.Duration) ([]*Ticket, error) {
	if have := ag.Inventory(site, typ); !amountWithin(amount, have) {
		return nil, fmt.Errorf("%w: have %.1f, want %.1f", ErrInventory, have, amount)
	}
	type piece struct {
		entry  int
		take   float64
		nb, na time.Duration
	}
	var buf [4]piece // most sales take one or two entries; buf keeps the plan off the heap
	plan := buf[:0]
	need := amount
	for i := 0; i < len(ag.stock) && need > 0; i++ {
		s := &ag.stock[i]
		leaf := s.ticket.Leaf()
		if leaf.Site != site || leaf.Type != typ || s.remaining <= 0 {
			continue
		}
		nb, na := max(notBefore, leaf.NotBefore), min(notAfter, leaf.NotAfter)
		if na <= nb {
			continue
		}
		take := min(need, s.remaining)
		plan = append(plan, piece{entry: i, take: take, nb: nb, na: na})
		need -= take
	}
	if need > 0 {
		return nil, fmt.Errorf("%w: %v of %v uncovered over [%v,%v)", ErrInventory, need, amount, notBefore, notAfter)
	}
	out := make([]*Ticket, len(plan))
	for k, p := range plan {
		sub, err := ag.stock[p.entry].ticket.Delegate(ag.signer, buyerName, buyerKey, p.take, p.nb, p.na, ag.serial+uint64(k)+1)
		if err != nil {
			return nil, err
		}
		out[k] = sub
	}
	ag.serial += uint64(len(plan))
	ag.SoldN += len(plan)
	drained := false
	for _, p := range plan {
		ag.stock[p.entry].remaining -= p.take
		drained = drained || ag.stock[p.entry].remaining == 0
	}
	if drained {
		ag.stock = slices.DeleteFunc(ag.stock, func(s stockEntry) bool { return s.remaining == 0 })
	}
	return out, nil
}
