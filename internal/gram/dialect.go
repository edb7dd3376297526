package gram

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/rsl"
)

// Dialect describes one local resource manager's idiosyncrasies: the
// attribute names it insists on, attributes it requires even when
// redundant, and the (partial) error vocabulary it can express. Real GT
// deployments bridged PBS, LSF, Condor, LoadLeveler and more; "it is rare
// that there is not some amount of heterogeneity to manage."
type Dialect struct {
	Name string
	// Rename maps canonical attribute names to the dialect's names.
	Rename map[string]string
	// Required lists dialect attributes the glue must synthesize when the
	// canonical request omits them (name -> default value).
	Required map[string]string
	// Errors lists the canonical error kinds the dialect can express.
	// Anything else degrades to an opaque code and loses fidelity.
	Errors map[error]string
}

// ErrOpaqueLocal is the degraded error returned when a local manager's
// failure has no canonical translation — the fidelity loss E7 counts.
var ErrOpaqueLocal = errors.New("gram: opaque local-manager error")

// CanonicalDialect is the identity dialect: PlanetLab's uniform node
// interface, where no translation happens at all.
var CanonicalDialect = Dialect{Name: "canonical"}

// StandardDialects returns n synthetic local-manager dialects with
// progressively divergent vocabularies, for the E7 heterogeneity sweep.
func StandardDialects(n int) []Dialect {
	names := []string{"pbs", "lsf", "condor", "loadleveler", "sge", "nqe", "ccs", "easy"}
	out := make([]Dialect, 0, n)
	for i := 0; i < n; i++ {
		name := names[i%len(names)]
		d := Dialect{
			Name: name,
			Rename: map[string]string{
				"count":       []string{"nodes", "n_procs", "machine_count", "tasks"}[i%4],
				"maxWallTime": []string{"walltime", "cpu_limit", "wall_clock_limit", "time"}[i%4],
				"queue":       []string{"destination", "class", "pool", "partition"}[i%4],
			},
			Required: map[string]string{},
			Errors:   map[error]string{ErrTooManySlots: name + "-E12"},
		}
		if i%2 == 0 {
			d.Required["shell"] = "/bin/sh"
		}
		if i%3 == 0 {
			d.Errors[ErrQueueFull] = name + "-E13"
		}
		// Every other dialect has a richer error vocabulary and can
		// express a missing wall-time limit; the rest degrade it to an
		// opaque code — so fidelity varies with the dialect mix.
		if i%2 == 1 {
			d.Errors[ErrWallTimeMissing] = name + "-E25"
		}
		out = append(out, d)
	}
	return out
}

// Glue is the unifying adapter GRAM interposes between the canonical
// interface and one dialect-speaking local manager. It rewrites requests
// into the dialect, rewrites the dialect's answers back, and counts the
// work — the cost PlanetLab avoids by mandating one node architecture.
type Glue struct {
	Inner   Manager
	Dialect Dialect

	// TranslateOps counts attribute/error rewrites performed.
	TranslateOps int
	// OpaqueErrs counts errors that lost fidelity in back-translation.
	OpaqueErrs int
}

// NewGlue wraps a manager in a dialect adapter.
func NewGlue(inner Manager, d Dialect) *Glue {
	return &Glue{Inner: inner, Dialect: d}
}

// translate rewrites a canonical request into the dialect and back,
// charging the rewrite ops. The round trip models marshalling to the
// local manager's submission language and parsing its acknowledgement.
func (g *Glue) translate(req rsl.Request) rsl.Request {
	if g.Dialect.Rename == nil && g.Dialect.Required == nil {
		return req
	}
	local := rsl.Request{Relations: make([]rsl.Relation, 0, len(req.Relations)+len(g.Dialect.Required))}
	for _, rel := range req.Relations {
		out := rel
		if to, ok := g.Dialect.Rename[rel.Attr]; ok {
			out.Attr = to
			g.TranslateOps++ // canonical -> local
		}
		local.Relations = append(local.Relations, out)
	}
	// Synthesized attributes are appended in sorted name order: the
	// relation sequence is part of the request a trace may record, so it
	// must not depend on map iteration order.
	required := make([]string, 0, len(g.Dialect.Required))
	for attr := range g.Dialect.Required {
		required = append(required, attr)
	}
	sort.Strings(required)
	for _, attr := range required {
		if _, ok := local.Find(attr); !ok {
			local.Relations = append(local.Relations, rsl.Relation{
				Attr: attr, Op: rsl.OpEq, Values: []rsl.Value{{Literal: g.Dialect.Required[attr]}},
			})
			g.TranslateOps++
		}
	}
	// Back-translation to canonical for the inner (simulated) manager.
	back := rsl.Request{Relations: make([]rsl.Relation, 0, len(local.Relations))}
	inverse := make(map[string]string, len(g.Dialect.Rename))
	for k, v := range g.Dialect.Rename {
		inverse[v] = k
	}
	for _, rel := range local.Relations {
		out := rel
		if to, ok := inverse[rel.Attr]; ok {
			out.Attr = to
			g.TranslateOps++ // local -> canonical
		}
		back.Relations = append(back.Relations, out)
	}
	return back
}

// translateErr maps an inner error through the dialect vocabulary; errors
// the dialect cannot express degrade to ErrOpaqueLocal.
func (g *Glue) translateErr(err error) error {
	if err == nil {
		return nil
	}
	g.TranslateOps++
	// First-match over an unordered map would let the winning translation
	// vary between runs when an error matches several canonical kinds;
	// match in sorted local-code order instead.
	type errCode struct {
		canonical error
		code      string
	}
	codes := make([]errCode, 0, len(g.Dialect.Errors))
	for canonical, code := range g.Dialect.Errors {
		codes = append(codes, errCode{canonical, code})
	}
	sort.Slice(codes, func(i, j int) bool {
		if codes[i].code != codes[j].code {
			return codes[i].code < codes[j].code
		}
		return codes[i].canonical.Error() < codes[j].canonical.Error()
	})
	for _, ec := range codes {
		if errors.Is(err, ec.canonical) {
			return fmt.Errorf("%w (local code %s)", ec.canonical, ec.code)
		}
	}
	if g.Dialect.Rename == nil && g.Dialect.Required == nil {
		return err // canonical dialect: perfect fidelity
	}
	g.OpaqueErrs++
	return fmt.Errorf("%w: %s", ErrOpaqueLocal, g.Dialect.Name)
}

// Submit hands the job to the inner manager with request and error
// translation.
func (g *Glue) Submit(j *Job) error {
	j.Req = g.translate(j.Req)
	return g.translateErr(g.Inner.Submit(j))
}
