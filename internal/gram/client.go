package gram

import (
	"time"

	"repro/internal/resilience"
	"repro/internal/simnet"
)

// This file holds the client-side GRAM helpers (Submit lives next to the
// gatekeeper): cancellation and the resilience-routed variants. The
// retry wrappers classify only transport faults (timeout, partition,
// host down) as retryable — a site that *answered* with a refusal said
// no on purpose, and asking again cannot change site policy.

// Cancel asks a gatekeeper to cancel a job and delivers the final status
// asynchronously. Unlike the fire-and-forget pattern this replaces, the
// error surfaces to the caller — a cancel lost to a partition leaves an
// orphaned job charging the user at the site.
func Cancel(net *simnet.Network, from, gatekeeper, jobID string, timeout time.Duration, done func(StatusReply, error)) {
	simnet.Request(net, from, gatekeeper, SvcCancel, jobID, timeout, done)
}

// SubmitWithRetry routes Submit through a resilience executor: transport
// faults back off and retry (gated by the site's breaker when one is
// passed); refusals fail immediately. A nil executor degrades to a plain
// Submit.
func SubmitWithRetry(ex *resilience.Executor, br *resilience.Breaker, net *simnet.Network, from, gatekeeper string, req SubmitRequest, timeout time.Duration, done func(SubmitReply, error)) {
	if ex == nil {
		Submit(net, from, gatekeeper, req, timeout, done)
		return
	}
	var last SubmitReply
	pol := ex.Policy()
	pol.Retryable = retryableTransport
	//gridlint:ignore snapcapture call-scoped reply accumulator; in-flight retry chains are exercised by the resilience fork differential gate
	ex.DoWithPolicy("gram.submit", pol, br, func(attempt int, settle func(error)) {
		Submit(net, from, gatekeeper, req, timeout, func(r SubmitReply, err error) {
			if err == nil {
				last = r
			}
			settle(err)
		})
	}, func(err error) { done(last, err) })
}

// CancelWithRetry routes Cancel through a resilience executor with the
// same transport-only retry classification. A nil executor degrades to a
// plain Cancel.
func CancelWithRetry(ex *resilience.Executor, br *resilience.Breaker, net *simnet.Network, from, gatekeeper, jobID string, timeout time.Duration, done func(StatusReply, error)) {
	if ex == nil {
		Cancel(net, from, gatekeeper, jobID, timeout, done)
		return
	}
	var last StatusReply
	pol := ex.Policy()
	pol.Retryable = retryableTransport
	//gridlint:ignore snapcapture call-scoped reply accumulator; in-flight retry chains are exercised by the resilience fork differential gate
	ex.DoWithPolicy("gram.cancel", pol, br, func(attempt int, settle func(error)) {
		Cancel(net, from, gatekeeper, jobID, timeout, func(r StatusReply, err error) {
			if err == nil {
				last = r
			}
			settle(err)
		})
	}, func(err error) { done(last, err) })
}

// retryableTransport treats network-layer faults and open breakers as
// retryable; anything a live gatekeeper said is final.
func retryableTransport(err error) bool {
	return simnet.IsTransient(err) || resilience.IsBreakerOpen(err)
}
