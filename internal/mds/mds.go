// Package mds implements the discovery and monitoring plane: per-resource
// information providers (GRIS), one aggregating index service (GIIS;
// RegionIndex in shard.go, alone or under a RootIndex) fed by soft-state
// registrations over the network, and an attribute-filter query
// language. This is the Globus MDS-2 architecture; PlanetLab's per-node
// sensors feeding services like Sophia/CoMon are structurally the same
// push-with-TTL pattern, so both stacks reuse this package with different
// refresh policies.
//
// The E3 scale experiment measures what the paper asserts about
// deployment scale (GT "in production use across VOs integrating resources
// from 20-50 sites ... expected to scale to 100s"): registration traffic
// grows with resource count while query staleness depends on the refresh
// interval.
package mds

import (
	"time"

	"repro/internal/sim"
	"repro/internal/simnet"
)

// SvcRegister and SvcQuery are the service names of an index (a
// RegionIndex, under either of its names) on its host.
const (
	SvcRegister = "mds.register"
	SvcQuery    = "mds.query"
)

// Record is a registered resource snapshot held by an index.
type Record struct {
	Name string
	// Attrs in a reply belongs to the index: read-only to the caller, it
	// follows the record's next refresh and lives until the record is
	// swept. The index holds at most one such map per live record.
	Attrs map[string]string
	// Stamp is when the snapshot was taken at the source.
	Stamp time.Duration
	// Source is the host whose GRIS produced the snapshot, so audits can
	// relate served records back to node liveness.
	Source string
}

// Registration is the wire form GRIS pushes to GIIS.
type Registration struct {
	Rec Record
	// TTL bounds how long the index may serve this snapshot.
	TTL time.Duration
}

// FilterOp is a query comparison operator.
type FilterOp int

// The filter operators. Numeric comparisons parse both sides as floats
// and fail the match when either side is non-numeric.
const (
	FEq FilterOp = iota
	FNe
	FLt
	FLe
	FGt
	FGe
)

// Filter is one attribute comparison.
type Filter struct {
	Attr  string
	Op    FilterOp
	Value string
}

// holds applies an ordering operator to two parsed sides.
func (op FilterOp) holds(a, b float64) bool {
	switch op {
	case FLt:
		return a < b
	case FLe:
		return a <= b
	case FGt:
		return a > b
	case FGe:
		return a >= b
	}
	return false
}

// Query is a conjunction of filters.
type Query struct {
	Filters []Filter
	// Limit caps results (0 = all).
	Limit int
}

// QueryReply carries matching records and their worst-case staleness.
type QueryReply struct {
	Records []Record
	// MaxStale is the age of the oldest snapshot served.
	MaxStale time.Duration
}

// GRIS is the per-host information service: it owns providers for local
// resources and pushes soft-state registrations to an index.
type GRIS struct {
	eng  *sim.Engine
	net  *simnet.Network
	host string

	// providers holds each provider beside its persistent record, whose
	// attr map is rewritten in place each push so steady-state refresh
	// is alloc-free; a push ranges over the slice and hashes nothing.
	// index finds a name's entry when AddProviderInto replaces it.
	providers []provider
	index     map[string]int
	ticker    *sim.Ticker

	// PushN counts registration messages sent.
	PushN int
}

// provider is one AddProviderInto entry: the fill and the record it fills.
type provider struct {
	fill func(attrs map[string]string)
	rec  Record
}

// NewGRIS creates the information service for host.
func NewGRIS(eng *sim.Engine, net *simnet.Network, host string) *GRIS {
	return &GRIS{eng: eng, net: net, host: host, index: make(map[string]int)}
}

// AddProviderInto registers a named local resource provider: each push,
// fill is handed the same attribute map (cleared) to repopulate, so a
// provider refreshing a fixed key set allocates nothing in steady state. The
// in-flight registration aliases that map until delivered; with push
// intervals far above network latency (the soft-state regime) the value
// skew window is negligible, and indexes copy on receipt.
func (g *GRIS) AddProviderInto(name string, fill func(attrs map[string]string)) {
	p := provider{fill: fill, rec: Record{Name: name, Attrs: make(map[string]string), Source: g.host}}
	if i, dup := g.index[name]; dup {
		g.providers[i] = p
		return
	}
	g.index[name] = len(g.providers)
	g.providers = append(g.providers, p)
}

// record materializes the current record for one provider by rewriting
// its persistent record in place; the returned record's Attrs therefore
// aliases provider-owned storage.
func (g *GRIS) record(p *provider) Record {
	clear(p.rec.Attrs)
	p.fill(p.rec.Attrs)
	p.rec.Stamp = g.eng.Now()
	return p.rec
}

// StartPush begins soft-state registration to the index host every
// interval, with TTL = 2×interval (surviving one lost push).
func (g *GRIS) StartPush(indexHost string, interval time.Duration) {
	if g.ticker != nil {
		g.ticker.Stop()
	}
	push := func() {
		for i := range g.providers {
			g.net.Send(g.host, indexHost, SvcRegister, Registration{Rec: g.record(&g.providers[i]), TTL: 2 * interval})
			g.PushN++
		}
	}
	push() // initial registration
	g.ticker = g.eng.NewTicker(interval, push)
}

// Stop halts pushing.
func (g *GRIS) Stop() {
	if g.ticker != nil {
		g.ticker.Stop()
		g.ticker = nil
	}
}

// GIIS is the paper's name for the aggregate index that a VO's GRISes
// push to: a RegionIndex with no root above it.
type GIIS = RegionIndex

// NewGIIS installs an index service on host.
func NewGIIS(eng *sim.Engine, net *simnet.Network, host string) *GIIS {
	return NewRegionIndex(eng, net, host, host, nil)
}

// QueryIndex is the client helper: query a GIIS over the network.
func QueryIndex(net *simnet.Network, from, indexHost string, q Query, timeout time.Duration, done func(QueryReply, error)) {
	net.Call(from, indexHost, SvcQuery, q, timeout, func(resp any, err error) {
		if err != nil {
			done(QueryReply{}, err)
			return
		}
		done(resp.(QueryReply), nil)
	})
}
