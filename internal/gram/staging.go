package gram

import (
	"errors"
	"time"

	"repro/internal/simnet"
)

// Staged submission models the GASS-style data movement that wrapped
// GRAM jobs in practice: stage the input to the site over the data
// plane, run the job, stage the output back, then report completion.
// Grid applications are "often compute-intensive [but] some also consume
// significant amounts of disk and/or network bandwidth" (§3.2) — this is
// where that bandwidth goes.

// ErrStageFailed wraps data-plane failures during staging.
var ErrStageFailed = errors.New("gram: staging transfer failed")

// StagedRequest bundles a submission with its data movement.
type StagedRequest struct {
	Submit SubmitRequest
	// StageInBytes are moved client -> gatekeeper before submission.
	StageInBytes float64
	// StageOutBytes are moved gatekeeper -> client after completion.
	StageOutBytes float64
	// Streams is the stripe width for both transfers (default 1).
	Streams int
}

// StagedResult reports the full lifecycle outcome.
type StagedResult struct {
	JobID string
	// StageIn/StageOut are the measured transfer durations (0 if none).
	StageIn, StageOut time.Duration
	// Final is the job's terminal state.
	Final JobState
}

// SubmitStaged runs the three-phase lifecycle and calls done exactly once
// with the result or the first error. The job's completion is observed
// via a callback service registered on the client host, so the whole
// flow — data in, job, data out — rides the simulated WAN.
func SubmitStaged(net *simnet.Network, from, gatekeeper string, req StagedRequest, timeout time.Duration, done func(StagedResult, error)) {
	res := StagedResult{}
	finished := false
	finish := func(err error) {
		if finished {
			return
		}
		finished = true
		done(res, err)
	}

	submitPhase := func() {
		// Register a per-job callback service before submitting.
		cbSvc := "gram.staged.cb/" + from + "/" + gatekeeper
		req.Submit.CallbackHost = from
		req.Submit.CallbackService = cbSvc
		var stageOut func()
		simnet.Serve(net.Host(from), cbSvc, func(_ string, n StateNotice) (struct{}, error) {
			if n.JobID != res.JobID || !n.State.Terminal() {
				return struct{}{}, nil
			}
			res.Final = n.State
			if n.State == Done && req.StageOutBytes > 0 {
				stageOut()
			} else {
				finish(nil)
			}
			return struct{}{}, nil
		})
		stageOut = func() {
			start := net.Engine().Now()
			flow, err := net.StartFlow(gatekeeper, from, req.StageOutBytes,
				simnet.FlowOpts{Streams: req.Streams}, func(*simnet.Flow) {
					res.StageOut = net.Engine().Now() - start
					finish(nil)
				})
			if err != nil {
				finish(errors.Join(ErrStageFailed, err))
				return
			}
			flow.OnFail = func(_ *simnet.Flow, e error) { finish(errors.Join(ErrStageFailed, e)) }
		}
		Submit(net, from, gatekeeper, req.Submit, timeout, func(reply SubmitReply, err error) {
			if err != nil {
				finish(err)
				return
			}
			res.JobID = reply.JobID
		})
	}

	if req.StageInBytes > 0 {
		start := net.Engine().Now()
		flow, err := net.StartFlow(from, gatekeeper, req.StageInBytes,
			simnet.FlowOpts{Streams: req.Streams}, func(*simnet.Flow) {
				res.StageIn = net.Engine().Now() - start
				submitPhase()
			})
		if err != nil {
			finish(errors.Join(ErrStageFailed, err))
			return
		}
		//gridlint:ignore snapleaf call-scoped completion guard; staged-call closures die with the call and flows are torn down on fork boundaries
		flow.OnFail = func(_ *simnet.Flow, e error) { finish(errors.Join(ErrStageFailed, e)) }
		return
	}
	submitPhase()
}
