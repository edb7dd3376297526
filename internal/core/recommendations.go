package core

import (
	"io"

	"repro/internal/metrics"
)

// Recommendation maps one of the paper's §6 "summary and
// recommendations" items to the code that demonstrates it in this
// reproduction — the closing claims of the paper made executable.
type Recommendation struct {
	// To names the community the paper addresses.
	To string `col:"to"`
	// Claim is the paper's recommendation, abbreviated.
	Claim string `col:"paper recommendation (§6)"`
	// DemonstratedBy names the module/experiment realizing it here.
	DemonstratedBy string `col:"demonstrated by"`
}

// Recommendations returns the paper's §6 list with pointers into the
// codebase.
func Recommendations() []Recommendation {
	return []Recommendation{
		{
			To:    "PlanetLab",
			Claim: "Promote interoperability between services (uniform discovery, representation, invocation)",
			DemonstratedBy: "internal/mds reused as the sensor collector (Federation.Comon); " +
				"internal/agreement service interfaces shared by all three enforcement backends",
		},
		{
			To:    "PlanetLab",
			Claim: "Add support for identity delegation (proxy certificates and GSI offer a possible model)",
			DemonstratedBy: "internal/identity proxy chains validate under the PlanetLab stack too — " +
				"probe identity-delegation flips to pass under StackHybrid (core/probes.go)",
		},
		{
			To:    "Globus",
			Claim: "Add support for delegating resource usage rights — and address virtualization",
			DemonstratedBy: "internal/agreement.SharpEnforcement: WS-Agreement as the vehicle over " +
				"SHARP tickets/leases, exactly the §6 sketch; internal/vm for the virtualization half",
		},
		{
			To:    "Globus",
			Claim: "WS-Agreement as a vehicle for global schedulers based on usage delegation",
			DemonstratedBy: "examples/agreements (three backends, one protocol); " +
				"E5 quantifies the delegation-style difference the recommendation rests on",
		},
		{
			To:    "Globus",
			Claim: "Integrate community contributions via a PlanetLab-style feedback loop",
			DemonstratedBy: "internal/gsi CAS assertion admission (AdmitWithAssertion): community-level " +
				"grants without per-site user enrollment — the outsourcing primitive §6 names",
		},
		{
			To:    "Both",
			Claim: "Pool experiences on security and policy in an increasingly hostile Internet",
			DemonstratedBy: "shared internal/identity PKI under both stacks; blast-radius accounting " +
				"(broker.MatchmakerBlastRadius vs DeployerBlastRadius) in E5",
		},
	}
}

// RenderRecommendations prints the checklist.
func RenderRecommendations(w io.Writer) { metrics.TableOf(Recommendations()).Render(w) }
