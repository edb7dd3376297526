// Quickstart: build the same 4-site candidate population as a Globus
// federation and as a PlanetLab deployment, run the VO-level probe suite
// against both through the probe-matrix experiment, and print the
// comparison — the paper's Figure 1 in ~30 lines of client code.
package main

import (
	"fmt"
	"os"

	"repro/internal/core"
)

func main() {
	specs := []core.SiteSpec{
		{Name: "duke", X: 10, Y: 5, Nodes: 2, ClusterSlots: 16, Policy: core.PlanetLabSitePolicy()},
		{Name: "chicago", X: 25, Y: 20, Nodes: 2, ClusterSlots: 32, Policy: core.PlanetLabSitePolicy()},
		{Name: "intel", X: 60, Y: 10, Nodes: 2, ClusterSlots: 8, Policy: core.GlobusSitePolicy(true, true)},
		{Name: "anl", X: 28, Y: 22, Nodes: 2, ClusterSlots: 64, Policy: core.GlobusSitePolicy(true, false)},
	}

	for _, stack := range []core.Stack{core.StackGlobus, core.StackPlanetLab, core.StackHybrid} {
		f := core.Build(stack, core.Config{Seed: 1}, specs)
		fmt.Printf("%-9s joined %d/%d sites, mean member autonomy %.2f\n",
			stack, len(f.JoinedSites()), len(f.Sites), f.MeanAutonomy())
	}
	fmt.Println()
	core.ProbeMatrix.Print(os.Stdout, core.ProbeMatrix.Run(1, specs, 1))
}
