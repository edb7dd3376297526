// Package mds implements the discovery and monitoring plane: per-resource
// information providers (GRIS), an aggregating index service (GIIS) fed by
// soft-state registrations over the network, and an attribute-filter query
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
	"fmt"
	"sort"
	"time"

	"repro/internal/sim"
	"repro/internal/simnet"
)

// SvcRegister and SvcQuery are the GIIS service names on its host.
const (
	SvcRegister = "mds.register"
	SvcQuery    = "mds.query"
)

// Record is a registered resource snapshot held by an index.
type Record struct {
	Name  string
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

// Match evaluates the filter against an attribute set.
func (f Filter) Match(attrs map[string]string) bool {
	got, ok := attrs[f.Attr]
	if !ok {
		return false
	}
	return f.matchValue(got)
}

// matchValue compares one present attribute value — shared by the flat
// map path above and the sharded interned-pair path, so both planes
// agree operator for operator.
func (f Filter) matchValue(got string) bool {
	switch f.Op {
	case FEq:
		return got == f.Value
	case FNe:
		return got != f.Value
	}
	a, errA := parseNumeric(got)
	b, errB := parseNumeric(f.Value)
	if errA != nil || errB != nil {
		return false
	}
	return f.Op.holds(a, b)
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

// GIIS is the aggregate index: it caches registrations until their TTL
// expires and answers attribute queries from the cache. The hierarchical
// index is RegionIndex under RootIndex (shard.go).
type GIIS struct {
	eng  *sim.Engine
	net  *simnet.Network
	host string

	records map[string]*cached

	// QueryN counts queries served; RegisterN registrations absorbed.
	QueryN, RegisterN int
}

type cached struct {
	rec     Record
	expires time.Duration
}

// NewGIIS installs an index service on host.
func NewGIIS(eng *sim.Engine, net *simnet.Network, host string) *GIIS {
	g := &GIIS{eng: eng, net: net, host: host, records: make(map[string]*cached)}
	h := net.Host(host)
	h.Handle(SvcRegister, g.handleRegister)
	h.Handle(SvcQuery, g.handleQuery)
	return g
}

func (g *GIIS) handleRegister(from string, raw any) (any, error) {
	reg, ok := raw.(Registration)
	if !ok {
		return nil, fmt.Errorf("mds: bad registration payload %T", raw)
	}
	if reg.Rec.Name == "" {
		return nil, fmt.Errorf("mds: registration without a name from %q", reg.Rec.Source)
	}
	g.RegisterN++
	// Refresh in place: a re-registering name reuses its cache entry and
	// attr map, so steady-state soft-state refresh allocates nothing
	// (the map-churn fix — previously every push allocated a fresh entry
	// and retained the sender's map).
	c := g.records[reg.Rec.Name]
	if c == nil {
		c = &cached{rec: Record{Attrs: make(map[string]string, len(reg.Rec.Attrs))}}
		g.records[reg.Rec.Name] = c
	}
	c.rec.Name = reg.Rec.Name
	c.rec.Stamp = reg.Rec.Stamp
	c.rec.Source = reg.Rec.Source
	clear(c.rec.Attrs)
	for k, v := range reg.Rec.Attrs {
		c.rec.Attrs[k] = v
	}
	c.expires = g.eng.Now() + reg.TTL
	return nil, nil
}

func (g *GIIS) handleQuery(from string, raw any) (any, error) {
	q, ok := raw.(Query)
	if !ok {
		return nil, fmt.Errorf("mds: bad query payload %T", raw)
	}
	g.QueryN++
	return g.Eval(q), nil
}

// Eval answers a query from the local cache (exported for in-process use
// by brokers co-located with the index).
func (g *GIIS) Eval(q Query) QueryReply {
	now := g.eng.Now()
	var names []string
	for name, c := range g.records {
		if c.expires <= now {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names) // deterministic result order
	var reply QueryReply
	for _, name := range names {
		c := g.records[name]
		match := true
		for _, f := range q.Filters {
			if !f.Match(c.rec.Attrs) {
				match = false
				break
			}
		}
		if !match {
			continue
		}
		reply.Records = append(reply.Records, c.rec)
		if age := now - c.rec.Stamp; age > reply.MaxStale {
			reply.MaxStale = age
		}
		if q.Limit > 0 && len(reply.Records) >= q.Limit {
			break
		}
	}
	return reply
}

// Live returns the number of unexpired records.
func (g *GIIS) Live() int {
	now := g.eng.Now()
	n := 0
	for _, c := range g.records {
		if c.expires > now {
			n++
		}
	}
	return n
}

// Sweep drops expired records (housekeeping; Eval already ignores them).
func (g *GIIS) Sweep() int {
	now := g.eng.Now()
	n := 0
	// Deleting during range is safe in Go, and deletion is commutative,
	// so no intermediate collect-and-sort slice is needed.
	for name, c := range g.records {
		if c.expires <= now {
			delete(g.records, name)
			n++
		}
	}
	return n
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
