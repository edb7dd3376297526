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
// int32 slot handles with interned attribute keys, so a site's
// registration touches only its own region and steady-state refresh
// writes in place without allocating. A slot is appended for a new name
// and rewritten in place after; none is ever freed. Each region keeps a
// widening summary of its attribute space, which the root absorbs with a
// soft-state TTL (RootIndex.AbsorbSummary) and consults to fan a query
// out only to regions that could possibly match. Pruning is conservative
// in both directions a summary can be wrong: a lapsed or missing summary
// includes the region (never exclude on ignorance), and a summary only
// ever widens (it covers every value the region has seen, a superset of
// what is live), so exclusion is always sound.
//
// A differential gate in shard_test.go holds the whole plane to the
// oracle in flat_test.go, the one-map-of-cached-records index this
// package first shipped: byte-identical records in byte-identical order,
// same TTL expiry, same staleness accounting, same Limit behavior.

// ErrNoRegions reports a root query with no attached regions.
var ErrNoRegions = errors.New("mds: root index has no attached regions")

// summaryValueCap bounds the per-key exact value set a summary carries;
// past it the key overflows into a valueFilter (min/max stay exact).
const summaryValueCap = 8

const valueFilterLog = 10

// valueFilter is a Bloom filter of 2^valueFilterLog bits over an overflowed
// key's values. A value added always tests present; an absent one tests
// present only on a collision, which costs one region scan, never a record.
type valueFilter [1 << valueFilterLog / 64]uint64

// probe reports whether v's three bits were all set, and sets them if add;
// the hash is unseeded FNV-1a with a fixed finalizer, the same every run.
func (f *valueFilter) probe(v string, add bool) (held bool) {
	h := uint64(14695981039346656037)
	for i := 0; i < len(v); i++ {
		h ^= uint64(v[i])
		h *= 1099511628211
	}
	// FNV's last bytes reach the high bits only through carries: mix.
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	held = true
	for i := 0; i < 3; i++ {
		b := h >> (i * valueFilterLog) & (1<<valueFilterLog - 1)
		w, m := b/64, uint64(1)<<(b%64)
		held = held && f[w]&m != 0
		if add {
			f[w] |= m
		}
	}
	return held
}

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
	// serves the slot, then kept equal to them.
	attrs map[string]string
}

// keyStat is the running widening summary of one attribute key: the
// distinct values seen (exact, then hashed once overflowed), and the
// numeric range over values that parse. It only widens, which is what
// makes summary pruning sound under stale soft state.
type keyStat struct {
	values   map[string]struct{}
	hashed   *valueFilter // non-nil once overflowed
	hasNum   bool
	min, max float64
}

// KeySummary is the materialized form of one key's summary.
type KeySummary struct {
	Key string
	// Values is the sorted distinct-value set; past summaryValueCap
	// values the key is Overflow and Hashed holds them instead.
	Values   []string
	Overflow bool
	Hashed   valueFilter
	// HasNum with Min/Max bound every value that parsed as a float.
	HasNum   bool
	Min, Max float64
}

// RegionSummary is what the root holds for a region: enough to decide
// "could any record here match this query", never to answer it.
type RegionSummary struct {
	Region string
	Keys   []KeySummary
	TTL    time.Duration
}

// RegionIndex is the aggregate index (MDS-2's GIIS) for one region's
// sites, with dense interned record storage and a widening summary.
type RegionIndex struct {
	eng  *sim.Engine
	name string
	in   *Interner

	slots  []regSlot
	byName map[string]int32

	// order lists the slots by ascending name, which is the reply order.
	// Only a new name (RegisterRecord) touches it; an out-of-order
	// arrival is appended and marks it unsorted, and the next Eval sorts
	// once for the whole batch.
	order    []int32
	unsorted bool

	// scratch holds attr keys for sorting during registration, reused.
	scratch []string

	// sum is the running widening summary.
	sum map[int32]*keyStat

	// RegisterN counts registrations absorbed; QueryN queries served.
	RegisterN, QueryN int
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
		name:   name,
		in:     in,
		byName: make(map[string]int32),
		sum:    make(map[int32]*keyStat),
	}
	h := net.Host(host)
	simnet.Serve(h, SvcRegister, r.handleRegister)
	simnet.Serve(h, SvcQuery, r.handleQuery)
	return r
}

// Name returns the region's name.
func (r *RegionIndex) Name() string { return r.name }

// Keys returns how many distinct attribute keys the region's interner
// holds (shared interners report the federation-wide vocabulary).
func (r *RegionIndex) Keys() int { return r.in.Len() }

func (r *RegionIndex) handleRegister(from string, reg Registration) (struct{}, error) {
	return struct{}{}, r.RegisterRecord(reg)
}

func (r *RegionIndex) handleQuery(from string, q Query) (QueryReply, error) {
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
		idx = int32(len(r.slots))
		r.slots = append(r.slots, regSlot{name: reg.Rec.Name})
		r.byName[reg.Rec.Name] = idx
		if n := len(r.order); n > 0 && r.slots[r.order[n-1]].name > reg.Rec.Name {
			r.unsorted = true
		}
		r.order = append(r.order, idx)
	}
	s := &r.slots[idx]
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
// it since it was written, and absorbing a covered value changes nothing.
// For the same reason a false return, which may follow some value writes,
// leaves nothing for the full layout to undo.
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

// absorb widens the running summary with one observed attribute value.
func (r *RegionIndex) absorb(id int32, v string) {
	st, ok := r.sum[id]
	if !ok {
		st = &keyStat{values: make(map[string]struct{})}
		r.sum[id] = st
	}
	if st.hashed != nil {
		st.hashed.probe(v, true)
	} else if _, seen := st.values[v]; !seen {
		if len(st.values) >= summaryValueCap {
			// The exact set seeds the filter and goes.
			st.hashed = new(valueFilter)
			for u := range st.values {
				st.hashed.probe(u, true)
			}
			st.hashed.probe(v, true)
			st.values = nil
		} else {
			st.values[v] = struct{}{}
		}
	}
	// NaN holds under no ordering operator and would freeze min/max: skip.
	if f, err := parseNumeric(v); err == nil && f == f {
		if !st.hasNum {
			st.hasNum = true
			st.min, st.max = f, f
		} else if f < st.min {
			st.min = f
		} else if f > st.max {
			st.max = f
		}
	}
}

// Live reports unexpired records.
func (r *RegionIndex) Live() int {
	now := r.eng.Now()
	n := 0
	for i := range r.slots {
		if r.slots[i].expires > now {
			n++
		}
	}
	return n
}

// Slots reports the dense store's slot count: every name it has held.
func (r *RegionIndex) Slots() int { return len(r.slots) }

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
	r.sortOrder()
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

// sortOrder sorts the arrivals since the last read into reply order.
func (r *RegionIndex) sortOrder() {
	if r.unsorted {
		slices.SortFunc(r.order, func(a, b int32) int { return strings.Compare(r.slots[a].name, r.slots[b].name) })
		r.unsorted = false
	}
}

// EachLive calls fn with each live record's name and source in reply
// order: Eval's walk without serving (no Record, no map, no QueryN).
func (r *RegionIndex) EachLive(fn func(name, source string)) {
	r.sortOrder()
	now := r.eng.Now()
	for _, idx := range r.order {
		if s := &r.slots[idx]; s.expires > now {
			fn(s.name, s.source)
		}
	}
}

// Summary materializes the region's current summary with a soft-state
// TTL, for RootIndex.AbsorbSummary.
func (r *RegionIndex) Summary(ttl time.Duration) RegionSummary {
	out := RegionSummary{Region: r.name, TTL: ttl}
	ids := make([]int32, 0, len(r.sum))
	for id := range r.sum {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return r.in.Key(ids[i]) < r.in.Key(ids[j]) })
	out.Keys = make([]KeySummary, 0, len(ids))
	for _, id := range ids {
		st := r.sum[id]
		ks := KeySummary{Key: r.in.Key(id), Overflow: st.hashed != nil, HasNum: st.hasNum, Min: st.min, Max: st.max}
		if ks.Overflow {
			ks.Hashed = *st.hashed
		}
		for v := range st.values {
			ks.Values = append(ks.Values, v)
		}
		sort.Strings(ks.Values)
		out.Keys = append(out.Keys, ks)
	}
	return out
}

// rootSum is one region's soft-state summary as held by the root.
type rootSum struct {
	sum     RegionSummary
	expires time.Duration
}

// RootIndex is the federation-wide query point: it holds region
// summaries (soft state, absorbed) and fans queries out only to regions
// whose summary admits a possible match. Query-plane region handles are
// attached in-process — the root answers synchronously like RegionIndex.Eval,
// which is what brokers co-located with the index consume.
type RootIndex struct {
	eng *sim.Engine

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
	rt := &RootIndex{eng: eng, sums: make(map[string]*rootSum)}
	simnet.Serve(net.Host(host), SvcQuery, rt.handleQuery)
	return rt
}

// AttachRegion registers a region's query-plane handle with the root.
func (rt *RootIndex) AttachRegion(r *RegionIndex) {
	rt.regions = append(rt.regions, r)
}

// AbsorbSummary installs one region summary with its soft-state TTL; it
// is the only way a summary reaches the root. Until the TTL lapses the
// root prunes on it; after, the region is consulted as unknown.
func (rt *RootIndex) AbsorbSummary(s RegionSummary) {
	rs := rt.sums[s.Region]
	if rs == nil {
		rs = &rootSum{}
		rt.sums[s.Region] = rs
	}
	rs.sum = s
	rs.expires = rt.eng.Now() + s.TTL
}

func (rt *RootIndex) handleQuery(from string, q Query) (QueryReply, error) {
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
		ks := &s.Keys[i]
		switch f.Op {
		case FEq:
			if ks.Overflow {
				if !ks.Hashed.probe(f.Value, false) {
					return false
				}
			} else if j := sort.SearchStrings(ks.Values, f.Value); j >= len(ks.Values) || ks.Values[j] != f.Value {
				return false
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
// summaries are consulted anyway (conservative). Each region's reply is in
// name order, so the root merges them — equal names in attachment order —
// and stops at Limit; MaxStale is over the records actually returned.
func (rt *RootIndex) QueryShards(q Query) (QueryReply, error) {
	if len(rt.regions) == 0 {
		return QueryReply{}, ErrNoRegions
	}
	rt.QueryN++
	now := rt.eng.Now()
	var buf [16]QueryReply // E14's regions fit on the stack
	subs, total := buf[:0], 0
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
		if sub := rg.Eval(q); len(sub.Records) > 0 {
			subs = append(subs, sub)
			total += len(sub.Records)
		}
	}
	if len(subs) == 1 {
		return subs[0], nil
	}
	if q.Limit > 0 {
		total = min(total, q.Limit)
	}
	var reply QueryReply
	if total > 0 {
		reply.Records = make([]Record, 0, total)
	}
	for len(reply.Records) < total {
		// The least head; a tie stays with the region attached first.
		k := 0
		for i := 1; i < len(subs); i++ {
			if subs[i].Records[0].Name < subs[k].Records[0].Name {
				k = i
			}
		}
		rec := subs[k].Records[0]
		reply.Records = append(reply.Records, rec)
		if age := now - rec.Stamp; age > reply.MaxStale {
			reply.MaxStale = age
		}
		if subs[k].Records = subs[k].Records[1:]; len(subs[k].Records) == 0 {
			subs = slices.Delete(subs, k, k+1)
		}
	}
	return reply, nil
}
