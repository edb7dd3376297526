// Package errdrop is gridlint corpus: discarded errors from
// domain-critical calls (Redeem, Submit, Deploy, ...) are flagged.
package errdrop

import "errors"

type authority struct{}

func (authority) Redeem(tk string) (string, error) { return "", errors.New("double spend") }
func (authority) Submit(j string) error            { return nil }
func (authority) Renew(id string) error            { return nil }
func (authority) Cancel(id string) error           { return nil }

// DeploySlice is package-level: plain function calls are guarded too.
func DeploySlice(name string) error { return nil }

func Bad(a authority) {
	a.Submit("j1")             // want "error returned by Submit is dropped"
	a.Redeem("t1")             // want "error returned by Redeem is dropped"
	lease, _ := a.Redeem("t2") // want "error from Redeem discarded via blank identifier"
	_ = lease
	go a.Submit("j2")    // want "error returned by Submit is dropped"
	defer a.Submit("j3") // want "error returned by Submit is dropped"
	a.Renew("l1")        // want "error returned by Renew is dropped"
	a.Cancel("j4")       // want "error returned by Cancel is dropped"
}

// BadFunc covers plain (non-method) calls to guarded names.
func BadFunc() {
	DeploySlice("cdn") // want "error returned by DeploySlice is dropped"
}

// bank mirrors trust.Bank and trust.Scoreboard: the byzantine-era
// collateral and reputation calls whose dropped errors break the
// conservation audit.
type bank struct{}

func (bank) Deposit(broker string, amount float64) error { return nil }
func (bank) Slash(broker string, amount float64, reason string) (float64, error) {
	return 0, errors.New("unknown broker")
}
func (bank) ReportOutcome(broker string, ok bool) error { return nil }

func BadTrust(b bank) {
	b.Deposit("byz-00", 10)                 // want "error returned by Deposit is dropped"
	b.Slash("byz-00", 1, "double-sell")     // want "error returned by Slash is dropped"
	seized, _ := b.Slash("byz-00", 1, "ds") // want "error from Slash discarded via blank identifier"
	_ = seized
	b.ReportOutcome("honest-00", true)    // want "error returned by ReportOutcome is dropped"
	go b.ReportOutcome("honest-01", true) // want "error returned by ReportOutcome is dropped"
}

func GoodTrust(b bank) error {
	if err := b.Deposit("honest-00", 10); err != nil {
		return err
	}
	seized, err := b.Slash("byz-00", 1, "double-sell")
	_ = seized
	if err != nil {
		return err
	}
	return b.ReportOutcome("honest-00", true)
}

// index mirrors mds.RegionIndex / mds.RootIndex, and ticket mirrors
// sharp.Ticket: the scale-era hot paths whose dropped errors hide a
// lost registration, an empty federation, or an unverified chain.
type index struct{}

func (index) RegisterRecord(reg string) error { return nil }
func (index) QueryShards(q string) (string, error) {
	return "", errors.New("no regions attached")
}

type ticket struct{}

func (ticket) Verify(key, now string) error { return errors.New("bad chain") }

func BadScale(ix index, tk ticket) {
	ix.RegisterRecord("node-1")          // want "error returned by RegisterRecord is dropped"
	reply, _ := ix.QueryShards("os=lin") // want "error from QueryShards discarded via blank identifier"
	_ = reply
	tk.Verify("k", "0s")    // want "error returned by Verify is dropped"
	go tk.Verify("k", "0s") // want "error returned by Verify is dropped"
}

func GoodScale(ix index, tk ticket) error {
	if err := ix.RegisterRecord("node-1"); err != nil {
		return err
	}
	reply, err := ix.QueryShards("os=lin")
	_ = reply
	if err != nil {
		return err
	}
	return tk.Verify("k", "0s")
}

func Good(a authority) error {
	if err := a.Submit("j"); err != nil {
		return err
	}
	lease, err := a.Redeem("t")
	_ = lease
	return err
}

type fireAndForget struct{}

// Submit here returns nothing: same name, no error result, no finding.
func (fireAndForget) Submit(string) {}

// Do mirrors resilience.Executor.Do: callback-style, no error result.
// The name is guarded only where a Do actually returns an error.
func (fireAndForget) Do(string, func(error)) {}

func GoodNoError(q fireAndForget) {
	q.Submit("x")
	q.Do("op", func(error) {})
}
