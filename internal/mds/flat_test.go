package mds

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/simnet"
)

// Match evaluates the filter against an attribute set.
func (f Filter) Match(attrs map[string]string) bool {
	got, ok := attrs[f.Attr]
	if !ok {
		return false
	}
	return f.matchValue(got)
}

// matchValue compares one present attribute value; the region's
// slotFilter.match must agree with it operator for operator.
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

// flatGIIS is the aggregate index as MDS-2 describes it and as this
// package first shipped it: one map of cached registrations, each with
// its own attribute map, answered by collect, sort and Match. Production
// runs RegionIndex (NewGIIS is a region with no root); this stays as the
// oracle TestShardedMatchesFlat, TestOrderIndexMatchesReference and
// FuzzRegisterAgreesWithReference hold the region to.
type flatGIIS struct {
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

// newFlatGIIS installs the oracle index on host.
func newFlatGIIS(eng *sim.Engine, net *simnet.Network, host string) *flatGIIS {
	g := &flatGIIS{eng: eng, net: net, host: host, records: make(map[string]*cached)}
	h := net.Host(host)
	h.Handle(SvcRegister, g.handleRegister)
	h.Handle(SvcQuery, g.handleQuery)
	return g
}

func (g *flatGIIS) handleRegister(from string, raw any) (any, error) {
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

func (g *flatGIIS) handleQuery(from string, raw any) (any, error) {
	q, ok := raw.(Query)
	if !ok {
		return nil, fmt.Errorf("mds: bad query payload %T", raw)
	}
	g.QueryN++
	return g.Eval(q), nil
}

// Eval answers a query from the local cache (exported for in-process use
// by brokers co-located with the index).
func (g *flatGIIS) Eval(q Query) QueryReply {
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
func (g *flatGIIS) Live() int {
	now := g.eng.Now()
	n := 0
	for _, c := range g.records {
		if c.expires > now {
			n++
		}
	}
	return n
}

// TestFilterMatch holds the oracle's Match and the region's compiled slot
// matcher to one table.
func TestFilterMatch(t *testing.T) {
	attrs := map[string]string{"os": "linux", "cpus": "4", "mem": "2048"}
	cases := []struct {
		f    Filter
		want bool
	}{
		{Filter{"os", FEq, "linux"}, true},
		{Filter{"os", FEq, "solaris"}, false},
		{Filter{"os", FNe, "solaris"}, true},
		{Filter{"cpus", FGe, "4"}, true},
		{Filter{"cpus", FGt, "4"}, false},
		{Filter{"mem", FLt, "4096"}, true},
		{Filter{"mem", FLe, "2048"}, true},
		{Filter{"nope", FEq, "x"}, false},
		{Filter{"os", FGt, "3"}, false}, // non-numeric side
	}
	rig := newShardRig(t, 1)
	rig.feed(t, 0, Record{Name: "n", Source: "s", Attrs: attrs}, time.Hour)
	for _, tc := range cases {
		region := len(rig.regions[0].Eval(Query{Filters: []Filter{tc.f}}).Records) == 1
		if got := tc.f.Match(attrs); got != tc.want || region != tc.want {
			t.Errorf("%+v: Match %v, region %v, want %v", tc.f, got, region, tc.want)
		}
	}
}
