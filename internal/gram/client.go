package gram

import (
	"time"

	"repro/internal/resilience"
	"repro/internal/simnet"
)

// This file holds the client-side GRAM helpers (Submit lives next to the
// gatekeeper): the resilience-routed submit and cancel. The retry
// wrappers classify only transport faults (timeout, partition, host
// down) as retryable — a site that *answered* with a refusal said no on
// purpose, and asking again cannot change site policy.

// SubmitWithRetry routes Submit through a resilience executor: transport
// faults back off and retry (gated by the site's breaker when one is
// passed); refusals fail immediately. A nil executor degrades to a plain
// Submit.
func SubmitWithRetry(ex *resilience.Executor, br *resilience.Breaker, net *simnet.Network, from, gatekeeper string, req SubmitRequest, timeout time.Duration, done func(SubmitReply, error)) {
	requestWithRetry(ex, br, net, from, gatekeeper, SvcSubmit, req, timeout, done)
}

// CancelWithRetry asks a gatekeeper to cancel a job and delivers the final
// status through done, retried through a resilience executor with the
// same transport-only classification. The error surfaces to the caller:
// a cancel lost to a partition leaves an orphaned job charging the user
// at the site. A nil executor sends one plain cancel.
func CancelWithRetry(ex *resilience.Executor, br *resilience.Breaker, net *simnet.Network, from, gatekeeper, jobID string, timeout time.Duration, done func(StatusReply, error)) {
	requestWithRetry(ex, br, net, from, gatekeeper, SvcCancel, jobID, timeout, done)
}

// requestWithRetry is simnet.Request retried through ex under the
// service's name, reporting the successful attempt's reply. A nil
// executor sends one plain request.
func requestWithRetry[Req, Resp any](ex *resilience.Executor, br *resilience.Breaker, net *simnet.Network, from, gatekeeper, service string, req Req, timeout time.Duration, done func(Resp, error)) {
	if ex == nil {
		simnet.Request(net, from, gatekeeper, service, req, timeout, done)
		return
	}
	var last Resp
	//gridlint:ignore snapcapture call-scoped reply accumulator; in-flight retry chains are exercised by the resilience fork differential gate
	ex.Do(service, br, retryableTransport, func(_ int, settle func(error)) {
		simnet.Request(net, from, gatekeeper, service, req, timeout, func(r Resp, err error) {
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
