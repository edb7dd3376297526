package mds

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/sim"
	"repro/internal/simnet"
)

// Sharded hierarchical MDS: site GRIS -> regional index -> root index.
//
// One index over every record makes registration and query cost grow
// with the whole federation. The plane therefore splits into regions (a
// six-site VO is a single region with no root above it, NewGIIS): each
// RegionIndex keeps its records in dense flat slices addressed by
// int32 slot handles with interned attribute keys (the PR 5 kernel
// idiom), so a site's registration touches only its own region and
// steady-state refresh writes in place without allocating. Regions push
// small widening summaries of their attribute space upward with
// soft-state TTLs; the root consults those summaries to fan a query out
// only to regions that could possibly match. Pruning is conservative in
// both directions a summary can be wrong: a stale or missing summary
// includes the region (never exclude on ignorance), and summaries only
// ever widen between rebuilds (they cover every value the region has
// seen, a superset of what is live), so exclusion is always sound.
//
// A differential gate in shard_test.go holds the whole plane to the
// oracle in flat_test.go, the one-map-of-cached-records index this
// package first shipped: byte-identical records in byte-identical order,
// same TTL expiry, same staleness accounting, same Limit behavior.

// SvcSummary is the region -> root summary push service.
const SvcSummary = "mds.summary"

// ErrNoRegions reports a root query with no attached regions.
var ErrNoRegions = errors.New("mds: root index has no attached regions")

// summaryValueCap bounds the per-key distinct-value set a summary
// carries; beyond it the key is marked overflowed and equality pruning
// disables (numeric range pruning keeps working — min/max stay exact).
const summaryValueCap = 8

// Interner maps attribute keys to dense int32 ids so per-record
// attribute storage is a pair of flat slices instead of a map.
type Interner struct {
	ids  map[string]int32
	keys []string
}

// NewInterner returns an empty key interner.
func NewInterner() *Interner {
	return &Interner{ids: make(map[string]int32)}
}

// ID interns key, returning its dense id.
func (in *Interner) ID(key string) int32 {
	if id, ok := in.ids[key]; ok {
		return id
	}
	id := int32(len(in.keys))
	in.ids[key] = id
	in.keys = append(in.keys, key)
	return id
}

// Lookup returns key's id without interning it.
func (in *Interner) Lookup(key string) (int32, bool) {
	id, ok := in.ids[key]
	return id, ok
}

// Key returns the string for an interned id.
func (in *Interner) Key(id int32) string { return in.keys[id] }

// Len reports how many keys are interned.
func (in *Interner) Len() int { return len(in.keys) }

// errNotNumeric is the shared sentinel parseNumeric returns for values
// that cannot start a number — ParseFloat's *NumError allocates per
// call, which would put an allocation on the hot register path for
// every plain-string attribute.
var errNotNumeric = errors.New("mds: not numeric")

// parseNumeric is ParseFloat with an alloc-free fast reject for values
// that obviously are not numbers (the common string attribute case). It
// succeeds exactly when ParseFloat does: past a sign, dot or digit only
// the unsigned specials can parse, and those are three whole words.
func parseNumeric(s string) (float64, error) {
	if s == "" {
		return 0, errNotNumeric
	}
	c := s[0]
	if c == '-' || c == '+' || c == '.' || (c >= '0' && c <= '9') {
		return strconv.ParseFloat(s, 64)
	}
	if (c == 'i' || c == 'I' || c == 'n' || c == 'N') &&
		(strings.EqualFold(s, "inf") || strings.EqualFold(s, "infinity") || strings.EqualFold(s, "nan")) {
		return strconv.ParseFloat(s, 64)
	}
	return 0, errNotNumeric
}

// regSlot is one dense record slot: interned attribute pairs in flat
// slices, reused across refreshes so steady-state churn is alloc-free.
type regSlot struct {
	name    string
	source  string
	stamp   time.Duration
	expires time.Duration
	keys    []int32
	vals    []string
	// attrs is the pairs as a reply's Record.Attrs: nil until an Eval
	// serves the slot, then kept equal to them until Sweep drops it.
	attrs map[string]string
}

// keyStat is the running widening summary of one attribute key: the
// distinct values seen (capped), and the numeric range over values that
// parse. It only widens between rebuilds, which is what makes summary
// pruning sound under stale soft state.
type keyStat struct {
	values   map[string]struct{}
	overflow bool
	hasNum   bool
	min, max float64
}

// KeySummary is the wire form of one key's summary.
type KeySummary struct {
	Key string
	// Values is the sorted distinct-value set; meaningless when
	// Overflow (the set exceeded summaryValueCap and equality pruning
	// must not be trusted).
	Values   []string
	Overflow bool
	// HasNum with Min/Max bound every value that parsed as a float.
	HasNum   bool
	Min, Max float64
}

// RegionSummary is what a region pushes to the root: enough to decide
// "could any record here match this query", never to answer it.
type RegionSummary struct {
	Region string
	Host   string
	N      int
	Keys   []KeySummary
	TTL    time.Duration
}

// RegionIndex is the aggregate index (MDS-2's GIIS) for one region's
// sites, with dense interned record storage and a summary uplink.
type RegionIndex struct {
	eng  *sim.Engine
	net  *simnet.Network
	host string
	name string
	in   *Interner

	slots  []regSlot
	free   []int32
	byName map[string]int32

	// order lists the occupied slots by ascending name, which is the
	// reply order. Only a name entering (RegisterRecord) or leaving
	// (Sweep) touches it; an out-of-order arrival is appended and marks
	// it unsorted, and the next Eval sorts once for the whole batch.
	order    []int32
	unsorted bool

	// scratch holds attr keys for sorting during registration, reused.
	scratch []string

	// sum is the running widening summary; sumVersion bumps when it
	// widens, so unchanged summaries skip their uplink push.
	sum        map[int32]*keyStat
	sumVersion uint64
	lastPushed uint64
	skippedOne bool
	ticker     *sim.Ticker

	// RegisterN counts registrations absorbed; QueryN queries served.
	// SummaryPushN/SummarySkipN count uplink ticks that sent / elided.
	RegisterN, QueryN          int
	SummaryPushN, SummarySkipN int
}

// NewRegionIndex installs a regional index named name on host. Regions
// of one federation share an Interner (attribute keys are global
// vocabulary); pass nil to own a private one.
func NewRegionIndex(eng *sim.Engine, net *simnet.Network, host, name string, in *Interner) *RegionIndex {
	if in == nil {
		in = NewInterner()
	}
	r := &RegionIndex{
		eng:    eng,
		net:    net,
		host:   host,
		name:   name,
		in:     in,
		byName: make(map[string]int32),
		sum:    make(map[int32]*keyStat),
	}
	h := net.Host(host)
	h.Handle(SvcRegister, r.handleRegister)
	h.Handle(SvcQuery, r.handleQuery)
	return r
}

// Name returns the region's name.
func (r *RegionIndex) Name() string { return r.name }

// Keys returns how many distinct attribute keys the region's interner
// holds (shared interners report the federation-wide vocabulary).
func (r *RegionIndex) Keys() int { return r.in.Len() }

func (r *RegionIndex) handleRegister(from string, raw any) (any, error) {
	reg, ok := raw.(Registration)
	if !ok {
		return nil, fmt.Errorf("mds: bad registration payload %T", raw)
	}
	return nil, r.RegisterRecord(reg)
}

func (r *RegionIndex) handleQuery(from string, raw any) (any, error) {
	q, ok := raw.(Query)
	if !ok {
		return nil, fmt.Errorf("mds: bad query payload %T", raw)
	}
	return r.Eval(q), nil
}

// RegisterRecord absorbs one registration into the dense store
// (exported for in-process use by co-located pushers; the network path
// arrives through the same code). Refreshing an existing name rewrites
// its slot in place — no allocation in steady state.
func (r *RegionIndex) RegisterRecord(reg Registration) error {
	if reg.Rec.Name == "" {
		return fmt.Errorf("mds: registration without a name from %q", reg.Rec.Source)
	}
	r.RegisterN++
	idx, ok := r.byName[reg.Rec.Name]
	if !ok {
		idx = r.allocSlot()
		r.byName[reg.Rec.Name] = idx
		if n := len(r.order); n > 0 && r.slots[r.order[n-1]].name > reg.Rec.Name {
			r.unsorted = true
		}
		r.order = append(r.order, idx)
	}
	s := &r.slots[idx]
	s.name = reg.Rec.Name
	s.source = reg.Rec.Source
	s.stamp = reg.Rec.Stamp
	s.expires = r.eng.Now() + reg.TTL
	if ok && r.refresh(s, reg.Rec.Attrs) {
		return nil
	}

	// Deterministic slot layout: sorted attr keys, interned, written
	// over the slot's existing pair storage.
	r.scratch = r.scratch[:0]
	for k := range reg.Rec.Attrs {
		r.scratch = append(r.scratch, k)
	}
	sort.Strings(r.scratch)
	s.keys = slices.Grow(s.keys[:0], len(r.scratch))
	s.vals = slices.Grow(s.vals[:0], len(r.scratch))
	clear(s.attrs)
	for _, k := range r.scratch {
		v := reg.Rec.Attrs[k]
		id := r.in.ID(k)
		s.keys = append(s.keys, id)
		s.vals = append(s.vals, v)
		if s.attrs != nil {
			s.attrs[k] = v
		}
		r.absorb(id, v)
	}
	return nil
}

// refresh rewrites a held slot whose key set attrs repeats: distinct keys,
// equal count and every slot key present mean the same set, so the sorted
// layout stands and only the values that differ are written and absorbed.
// Skipping absorb for an unchanged value is exact: the summary has covered
// it since it was written, rebuilds walk every named slot, and absorbing a
// covered value changes nothing. For the same reason a false return, which
// may follow some value writes, leaves nothing for the full layout to undo.
func (r *RegionIndex) refresh(s *regSlot, attrs map[string]string) bool {
	if len(attrs) != len(s.keys) {
		return false
	}
	for j, id := range s.keys {
		v, ok := attrs[r.in.Key(id)]
		if !ok {
			return false
		}
		if v != s.vals[j] {
			s.vals[j] = v
			if s.attrs != nil {
				s.attrs[r.in.Key(id)] = v
			}
			r.absorb(id, v)
		}
	}
	return true
}

// allocSlot pops a free slot or appends one.
func (r *RegionIndex) allocSlot() int32 {
	if n := len(r.free); n > 0 {
		idx := r.free[n-1]
		r.free = r.free[:n-1]
		return idx
	}
	r.slots = append(r.slots, regSlot{})
	return int32(len(r.slots) - 1)
}

// absorb widens the running summary with one observed attribute value,
// bumping the version only when something actually widened.
func (r *RegionIndex) absorb(id int32, v string) {
	st, ok := r.sum[id]
	if !ok {
		st = &keyStat{values: make(map[string]struct{})}
		r.sum[id] = st
		r.sumVersion++
	}
	if !st.overflow {
		if _, seen := st.values[v]; !seen {
			if len(st.values) >= summaryValueCap {
				st.overflow = true
				r.sumVersion++
			} else {
				st.values[v] = struct{}{}
				r.sumVersion++
			}
		}
	}
	// NaN holds under no ordering operator and would freeze min/max: skip.
	if f, err := parseNumeric(v); err == nil && f == f {
		if !st.hasNum {
			st.hasNum = true
			st.min, st.max = f, f
			r.sumVersion++
		} else {
			if f < st.min {
				st.min = f
				r.sumVersion++
			}
			if f > st.max {
				st.max = f
				r.sumVersion++
			}
		}
	}
}

// Live reports unexpired records.
func (r *RegionIndex) Live() int {
	now := r.eng.Now()
	n := 0
	for i := range r.slots {
		if r.slots[i].name != "" && r.slots[i].expires > now {
			n++
		}
	}
	return n
}

// Slots reports the dense store's slot count (peak concurrent names).
func (r *RegionIndex) Slots() int { return len(r.slots) }

// Sweep frees expired slots and rebuilds the running summary from what
// survives, re-tightening the widening bounds. Returns slots freed.
func (r *RegionIndex) Sweep() int {
	now := r.eng.Now()
	n := 0
	for i := range r.slots {
		s := &r.slots[i]
		if s.name == "" || s.expires > now {
			continue
		}
		delete(r.byName, s.name)
		s.name = ""
		s.keys = s.keys[:0]
		s.vals = s.vals[:0]
		s.attrs = nil
		r.free = append(r.free, int32(i))
		n++
	}
	if n > 0 {
		r.order = slices.DeleteFunc(r.order, func(idx int32) bool { return r.slots[idx].name == "" })
		r.rebuildSummary()
	}
	return n
}

// rebuildSummary recomputes the summary over live slots only (the one
// place the widening bounds tighten).
func (r *RegionIndex) rebuildSummary() {
	for id := range r.sum {
		delete(r.sum, id)
	}
	for i := range r.slots {
		s := &r.slots[i]
		if s.name == "" {
			continue
		}
		for j, id := range s.keys {
			r.absorb(id, s.vals[j])
		}
	}
	r.sumVersion++
}

// slotFilter is a Filter compiled once per query: the attribute as its
// interned id and, for the ordering operators, the parsed right side.
type slotFilter struct {
	id  int32
	op  FilterOp
	val string
	num float64
}

// compile resolves q's filters into buf; false when one can match no
// record (attribute never interned, or a non-numeric ordering bound).
func (r *RegionIndex) compile(buf []slotFilter, q Query) ([]slotFilter, bool) {
	for _, f := range q.Filters {
		id, ok := r.in.Lookup(f.Attr)
		if !ok {
			return nil, false
		}
		c := slotFilter{id: id, op: f.Op, val: f.Value}
		if f.Op != FEq && f.Op != FNe {
			var err error
			if c.num, err = parseNumeric(f.Value); err != nil {
				return nil, false
			}
		}
		buf = append(buf, c)
	}
	return buf, true
}

// match tests one slot: a missing attribute never matches.
func (c *slotFilter) match(s *regSlot) bool {
	j := slices.Index(s.keys, c.id)
	if j < 0 {
		return false
	}
	switch c.op {
	case FEq:
		return s.vals[j] == c.val
	case FNe:
		return s.vals[j] != c.val
	}
	a, err := parseNumeric(s.vals[j])
	return err == nil && c.op.holds(a, c.num)
}

// Eval answers a query from the dense store (exported for in-process
// use by brokers co-located with the index): live records in sorted name
// order, Limit truncation, MaxStale over the records actually returned.
// It walks the order index and touches a Record only for a match, so a
// limited query costs the slots visited until Limit, not the region; a
// record's map is built at its first serving and shared after.
func (r *RegionIndex) Eval(q Query) QueryReply {
	r.QueryN++
	var reply QueryReply
	var buf [4]slotFilter
	filters, ok := r.compile(buf[:0], q)
	if !ok {
		return reply
	}
	if r.unsorted {
		slices.SortFunc(r.order, func(a, b int32) int { return strings.Compare(r.slots[a].name, r.slots[b].name) })
		r.unsorted = false
	}
	now := r.eng.Now()
scan:
	for _, idx := range r.order {
		s := &r.slots[idx]
		if s.expires <= now {
			continue
		}
		for i := range filters {
			if !filters[i].match(s) {
				continue scan
			}
		}
		if s.attrs == nil {
			s.attrs = make(map[string]string, len(s.keys))
			for j, id := range s.keys {
				s.attrs[r.in.Key(id)] = s.vals[j]
			}
		}
		reply.Records = append(reply.Records, Record{Name: s.name, Attrs: s.attrs, Stamp: s.stamp, Source: s.source})
		if age := now - s.stamp; age > reply.MaxStale {
			reply.MaxStale = age
		}
		if q.Limit > 0 && len(reply.Records) >= q.Limit {
			break
		}
	}
	return reply
}

// Summary materializes the region's current summary for an uplink push.
func (r *RegionIndex) Summary(ttl time.Duration) RegionSummary {
	out := RegionSummary{Region: r.name, Host: r.host, N: r.Live(), TTL: ttl}
	ids := make([]int32, 0, len(r.sum))
	for id := range r.sum {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return r.in.Key(ids[i]) < r.in.Key(ids[j]) })
	for _, id := range ids {
		st := r.sum[id]
		ks := KeySummary{Key: r.in.Key(id), Overflow: st.overflow, HasNum: st.hasNum, Min: st.min, Max: st.max}
		if !st.overflow {
			for v := range st.values {
				ks.Values = append(ks.Values, v)
			}
			sort.Strings(ks.Values)
		}
		out.Keys = append(out.Keys, ks)
	}
	return out
}

// StartSummaryPush begins the soft-state uplink: every interval the
// region pushes its summary to the root with TTL 2×interval — unless
// nothing widened since the last push, in which case one tick may be
// skipped (the TTL survives exactly one silence; the second tick pushes
// as a keepalive). That is the delta behavior: a quiet region costs the
// root half the summary traffic of a churning one.
func (r *RegionIndex) StartSummaryPush(rootHost string, interval time.Duration) {
	if r.ticker != nil {
		r.ticker.Stop()
	}
	push := func() {
		if r.sumVersion == r.lastPushed && !r.skippedOne {
			r.skippedOne = true
			r.SummarySkipN++
			return
		}
		r.skippedOne = false
		r.lastPushed = r.sumVersion
		r.SummaryPushN++
		r.net.Send(r.host, rootHost, SvcSummary, r.Summary(2*interval))
	}
	push()
	r.ticker = r.eng.NewTicker(interval, push)
}

// StopSummaryPush halts the uplink.
func (r *RegionIndex) StopSummaryPush() {
	if r.ticker != nil {
		r.ticker.Stop()
		r.ticker = nil
	}
}

// rootSum is one region's soft-state summary as held by the root.
type rootSum struct {
	sum     RegionSummary
	expires time.Duration
}

// RootIndex is the federation-wide query point: it holds region
// summaries (soft state, pushed) and fans queries out only to regions
// whose summary admits a possible match. Query-plane region handles are
// attached in-process — the root answers synchronously like RegionIndex.Eval,
// which is what brokers co-located with the index consume.
type RootIndex struct {
	eng  *sim.Engine
	net  *simnet.Network
	host string

	regions []*RegionIndex
	sums    map[string]*rootSum

	// QueryN counts root queries; per query, FanoutN counts regions
	// actually consulted, PrunedN regions excluded by summary, and
	// UnknownN regions consulted because their summary was missing or
	// stale (the conservative path).
	QueryN, FanoutN, PrunedN, UnknownN int
}

// NewRootIndex installs the root index service on host.
func NewRootIndex(eng *sim.Engine, net *simnet.Network, host string) *RootIndex {
	rt := &RootIndex{eng: eng, net: net, host: host, sums: make(map[string]*rootSum)}
	h := net.Host(host)
	h.Handle(SvcSummary, rt.handleSummary)
	h.Handle(SvcQuery, rt.handleQuery)
	return rt
}

// AttachRegion registers a region's query-plane handle with the root.
func (rt *RootIndex) AttachRegion(r *RegionIndex) {
	rt.regions = append(rt.regions, r)
}

func (rt *RootIndex) handleSummary(from string, raw any) (any, error) {
	s, ok := raw.(RegionSummary)
	if !ok {
		return nil, fmt.Errorf("mds: bad summary payload %T", raw)
	}
	rt.AbsorbSummary(s)
	return nil, nil
}

// AbsorbSummary installs one region summary with its soft-state TTL
// (exported for in-process feeders co-located with the root; the
// network path arrives through the same code).
func (rt *RootIndex) AbsorbSummary(s RegionSummary) {
	rs := rt.sums[s.Region]
	if rs == nil {
		rs = &rootSum{}
		rt.sums[s.Region] = rs
	}
	rs.sum = s
	rs.expires = rt.eng.Now() + s.TTL
}

func (rt *RootIndex) handleQuery(from string, raw any) (any, error) {
	q, ok := raw.(Query)
	if !ok {
		return nil, fmt.Errorf("mds: bad query payload %T", raw)
	}
	return rt.QueryShards(q)
}

// summaryMayMatch reports whether a region whose attribute space is
// bounded by s could hold a record matching q. False only when some
// filter is provably unsatisfiable against the summary.
func summaryMayMatch(s RegionSummary, q Query) bool {
	for _, f := range q.Filters {
		i := sort.Search(len(s.Keys), func(i int) bool { return s.Keys[i].Key >= f.Attr })
		if i >= len(s.Keys) || s.Keys[i].Key != f.Attr {
			// No record in the region has the attribute: the filter fails
			// for every record, so the region cannot contribute.
			return false
		}
		ks := s.Keys[i]
		switch f.Op {
		case FEq:
			if !ks.Overflow {
				j := sort.SearchStrings(ks.Values, f.Value)
				if j >= len(ks.Values) || ks.Values[j] != f.Value {
					return false
				}
			}
		case FNe:
			if !ks.Overflow && len(ks.Values) == 1 && ks.Values[0] == f.Value {
				return false
			}
		default:
			b, err := parseNumeric(f.Value)
			if err != nil {
				// Non-numeric comparison value: the filter fails everywhere.
				return false
			}
			if !ks.HasNum {
				return false
			}
			// Min/Max keep widening even past value-set overflow, so the
			// range test stays sound under overflow.
			switch f.Op {
			case FLt:
				if !(ks.Min < b) {
					return false
				}
			case FLe:
				if !(ks.Min <= b) {
					return false
				}
			case FGt:
				if !(ks.Max > b) {
					return false
				}
			case FGe:
				if !(ks.Max >= b) {
					return false
				}
			}
		}
	}
	return true
}

// QueryShards answers a query by pruned fan-out: regions whose live
// summary rules out a match are skipped; regions with stale or missing
// summaries are consulted anyway (conservative). Results merge into the
// single-region order contract — global sorted name order, Limit applied
// after the merge, MaxStale over the records actually returned.
func (rt *RootIndex) QueryShards(q Query) (QueryReply, error) {
	if len(rt.regions) == 0 {
		return QueryReply{}, ErrNoRegions
	}
	rt.QueryN++
	now := rt.eng.Now()
	var merged []Record
	for _, rg := range rt.regions {
		rs := rt.sums[rg.name]
		known := rs != nil && rs.expires > now
		if known && !summaryMayMatch(rs.sum, q) {
			rt.PrunedN++
			continue
		}
		if !known {
			rt.UnknownN++
		}
		rt.FanoutN++
		// Per-region Limit is sound: the global first-Limit names
		// include at most Limit from any single region, and each
		// region returns its own first matches in name order.
		sub := rg.Eval(q)
		merged = append(merged, sub.Records...)
	}
	sort.Slice(merged, func(i, j int) bool { return merged[i].Name < merged[j].Name })
	if q.Limit > 0 && len(merged) > q.Limit {
		merged = merged[:q.Limit]
	}
	var reply QueryReply
	reply.Records = merged
	for _, rec := range merged {
		if age := now - rec.Stamp; age > reply.MaxStale {
			reply.MaxStale = age
		}
	}
	return reply, nil
}

// SummaryFresh reports how many region summaries are currently live.
func (rt *RootIndex) SummaryFresh() int {
	now := rt.eng.Now()
	n := 0
	for _, rs := range rt.sums {
		if rs.expires > now {
			n++
		}
	}
	return n
}
