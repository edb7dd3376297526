package sharp

import "time"

// What fuzz_test.go needs from inside the package. It lives in
// sharp_test because it seeds from internal/adversary, which imports
// sharp.

// TBS is the claim's to-be-signed encoding, for re-signing a mutated
// claim the way its holder could.
func (c *Claim) TBS() []byte { return c.tbs() }

// WarmSigs runs the memoized chain walk over t without redeeming it, so
// a test can hand Redeem a memo that has already proved t's links.
func (a *Authority) WarmSigs(t *Ticket, now time.Duration) error {
	return t.verify(a.signer.Public(), now, a.sigCache)
}
