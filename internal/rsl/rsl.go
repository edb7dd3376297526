// Package rsl implements the Globus Resource Specification Language, the
// job-description notation GRAM consumes ("The corresponding abstractions
// offered by the Globus Toolkit are the service (for GT3) or job (for GT2
// and GT3)"). It parses the classic RSL-1 syntax:
//
//	&(executable=/bin/sim)(count=4)(maxWallTime=3600)(queue=batch)
//
// including conjunctions (&), multi-requests (+) used by co-allocators
// like DUROC, relational operators (=, !=, <, <=, >, >=), quoted strings,
// value lists, and nested pair lists for environment bindings:
//
//	+(&(executable=a)(count=2))(&(executable=b)(count=4))
//	&(executable=/bin/x)(environment=(HOME /home/u)(TERM vt100))
//
// The parser reports errors with byte offsets, and Spec.String() renders a
// canonical form that reparses to an equivalent spec.
package rsl

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/sim"
)

// Op is a relational operator in an RSL relation.
type Op int

// The RSL relational operators.
const (
	OpEq Op = iota
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
)

var opNames = [...]string{"=", "!=", "<", "<=", ">", ">="}

func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("Op(%d)", int(o))
}

// Value is a single RSL value: either a literal word/string, or a
// parenthesized list of values (as in environment pairs).
type Value struct {
	Literal string
	List    []Value
}

// IsList reports whether the value is a parenthesized list.
func (v Value) IsList() bool { return v.List != nil }

func (v Value) String() string {
	if !v.IsList() {
		return quoteIfNeeded(v.Literal)
	}
	parts := make([]string, len(v.List))
	for i, x := range v.List {
		parts[i] = x.String()
	}
	return "(" + strings.Join(parts, " ") + ")"
}

// Relation is one (attribute op values...) clause.
type Relation struct {
	Attr   string
	Op     Op
	Values []Value
}

func (r Relation) String() string {
	parts := make([]string, len(r.Values))
	for i, v := range r.Values {
		parts[i] = v.String()
	}
	return "(" + r.Attr + r.Op.String() + strings.Join(parts, " ") + ")"
}

// Request is a conjunction of relations describing one job.
type Request struct {
	Relations []Relation
}

// Spec is a parsed RSL specification: one request, or a multi-request.
type Spec struct {
	Multi    bool
	Requests []Request
}

// ErrParse wraps all syntax errors.
var ErrParse = errors.New("rsl: parse error")

// ErrMissing reports an absent required attribute.
var ErrMissing = errors.New("rsl: missing attribute")

// ErrType reports an attribute whose value has the wrong type.
var ErrType = errors.New("rsl: wrong value type")

// ErrRange reports a numeric attribute whose value the requested type
// cannot represent.
var ErrRange = errors.New("rsl: value out of range")

func parseErr(pos int, format string, args ...any) error {
	return fmt.Errorf("%w at offset %d: %s", ErrParse, pos, fmt.Sprintf(format, args...))
}

// Parse parses an RSL string.
func Parse(src string) (*Spec, error) {
	p := &parser{src: src}
	p.skipSpace()
	var spec *Spec
	var err error
	switch {
	case p.peek() == '+':
		spec, err = p.parseMulti()
	case p.peek() == '&':
		var req Request
		req, err = p.parseConjunction()
		if err == nil {
			spec = &Spec{Requests: []Request{req}}
		}
	default:
		return nil, parseErr(p.pos, "expected '&' or '+', got %q", p.peekStr())
	}
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if p.pos != len(p.src) {
		return nil, parseErr(p.pos, "trailing input %q", p.peekStr())
	}
	return spec, nil
}

type parser struct {
	src string
	pos int
}

func (p *parser) peek() byte {
	if p.pos >= len(p.src) {
		return 0
	}
	return p.src[p.pos]
}

func (p *parser) peekStr() string {
	end := p.pos + 8
	if end > len(p.src) {
		end = len(p.src)
	}
	if p.pos >= len(p.src) {
		return "<end>"
	}
	return p.src[p.pos:end]
}

func (p *parser) skipSpace() {
	for p.pos < len(p.src) {
		switch p.src[p.pos] {
		case ' ', '\t', '\n', '\r':
			p.pos++
		default:
			return
		}
	}
}

func (p *parser) expect(b byte) error {
	if p.peek() != b {
		return parseErr(p.pos, "expected %q, got %q", string(b), p.peekStr())
	}
	p.pos++
	return nil
}

func (p *parser) parseMulti() (*Spec, error) {
	if err := p.expect('+'); err != nil {
		return nil, err
	}
	spec := &Spec{Multi: true}
	for {
		p.skipSpace()
		if p.peek() != '(' {
			break
		}
		p.pos++
		p.skipSpace()
		req, err := p.parseConjunction()
		if err != nil {
			return nil, err
		}
		p.skipSpace()
		if err := p.expect(')'); err != nil {
			return nil, err
		}
		spec.Requests = append(spec.Requests, req)
	}
	if len(spec.Requests) == 0 {
		return nil, parseErr(p.pos, "multi-request with no sub-requests")
	}
	return spec, nil
}

func (p *parser) parseConjunction() (Request, error) {
	var req Request
	if err := p.expect('&'); err != nil {
		return req, err
	}
	for {
		p.skipSpace()
		if p.peek() != '(' {
			break
		}
		rel, err := p.parseRelation()
		if err != nil {
			return req, err
		}
		req.Relations = append(req.Relations, rel)
	}
	if len(req.Relations) == 0 {
		return req, parseErr(p.pos, "conjunction with no relations")
	}
	return req, nil
}

func (p *parser) parseRelation() (Relation, error) {
	var rel Relation
	if err := p.expect('('); err != nil {
		return rel, err
	}
	p.skipSpace()
	attr := p.word()
	if attr == "" {
		return rel, parseErr(p.pos, "expected attribute name")
	}
	rel.Attr = attr
	p.skipSpace()
	op, err := p.operator()
	if err != nil {
		return rel, err
	}
	rel.Op = op
	for {
		p.skipSpace()
		switch {
		case p.peek() == ')':
			p.pos++
			if len(rel.Values) == 0 {
				return rel, parseErr(p.pos, "relation %q has no value", attr)
			}
			return rel, nil
		case p.peek() == 0:
			return rel, parseErr(p.pos, "unterminated relation %q", attr)
		default:
			v, err := p.value()
			if err != nil {
				return rel, err
			}
			rel.Values = append(rel.Values, v)
		}
	}
}

func (p *parser) operator() (Op, error) {
	switch p.peek() {
	case '=':
		p.pos++
		return OpEq, nil
	case '!':
		p.pos++
		if err := p.expect('='); err != nil {
			return 0, err
		}
		return OpNe, nil
	case '<':
		p.pos++
		if p.peek() == '=' {
			p.pos++
			return OpLe, nil
		}
		return OpLt, nil
	case '>':
		p.pos++
		if p.peek() == '=' {
			p.pos++
			return OpGe, nil
		}
		return OpGt, nil
	}
	return 0, parseErr(p.pos, "expected operator, got %q", p.peekStr())
}

func (p *parser) value() (Value, error) {
	switch {
	case p.peek() == '(':
		p.pos++
		var list []Value
		for {
			p.skipSpace()
			if p.peek() == ')' {
				p.pos++
				return Value{List: ensureList(list)}, nil
			}
			if p.peek() == 0 {
				return Value{}, parseErr(p.pos, "unterminated list")
			}
			v, err := p.value()
			if err != nil {
				return Value{}, err
			}
			list = append(list, v)
		}
	case p.peek() == '"':
		return p.quoted()
	default:
		w := p.word()
		if w == "" {
			return Value{}, parseErr(p.pos, "expected value, got %q", p.peekStr())
		}
		return Value{Literal: w}, nil
	}
}

// ensureList keeps empty lists distinguishable from literals.
func ensureList(l []Value) []Value {
	if l == nil {
		return []Value{}
	}
	return l
}

func (p *parser) quoted() (Value, error) {
	start := p.pos
	p.pos++ // opening quote
	var sb strings.Builder
	for p.pos < len(p.src) {
		c := p.src[p.pos]
		if c == '"' {
			// RSL escapes a quote by doubling it.
			if p.pos+1 < len(p.src) && p.src[p.pos+1] == '"' {
				sb.WriteByte('"')
				p.pos += 2
				continue
			}
			p.pos++
			return Value{Literal: sb.String()}, nil
		}
		sb.WriteByte(c)
		p.pos++
	}
	return Value{}, parseErr(start, "unterminated string")
}

func isWordByte(c byte) bool {
	switch c {
	case '(', ')', '=', '<', '>', '!', '"', ' ', '\t', '\n', '\r', '&', '+', 0:
		return false
	}
	return true
}

func (p *parser) word() string {
	start := p.pos
	for p.pos < len(p.src) && isWordByte(p.src[p.pos]) {
		p.pos++
	}
	return p.src[start:p.pos]
}

func quoteIfNeeded(s string) string {
	if s == "" {
		return `""`
	}
	for i := 0; i < len(s); i++ {
		if !isWordByte(s[i]) {
			return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
		}
	}
	return s
}

// String renders the canonical RSL form.
func (s *Spec) String() string {
	if s.Multi {
		var sb strings.Builder
		sb.WriteByte('+')
		for _, r := range s.Requests {
			sb.WriteByte('(')
			sb.WriteString(r.String())
			sb.WriteByte(')')
		}
		return sb.String()
	}
	return s.Requests[0].String()
}

// String renders one request's conjunction.
func (r Request) String() string {
	var sb strings.Builder
	sb.WriteByte('&')
	for _, rel := range r.Relations {
		sb.WriteString(rel.String())
	}
	return sb.String()
}

// Single returns the sole request of a non-multi spec.
func (s *Spec) Single() (Request, error) {
	if s.Multi || len(s.Requests) != 1 {
		return Request{}, fmt.Errorf("rsl: expected a single request, have %d (multi=%v)", len(s.Requests), s.Multi)
	}
	return s.Requests[0], nil
}

// Find returns the first relation for attr (case-insensitive, as GRAM
// treated attribute names), or false.
func (r Request) Find(attr string) (Relation, bool) {
	for _, rel := range r.Relations {
		if strings.EqualFold(rel.Attr, attr) {
			return rel, true
		}
	}
	return Relation{}, false
}

// String returns attr's single literal value.
func (r Request) String2(attr string) (string, error) {
	rel, ok := r.Find(attr)
	if !ok {
		return "", fmt.Errorf("%w: %q", ErrMissing, attr)
	}
	if len(rel.Values) != 1 || rel.Values[0].IsList() {
		return "", fmt.Errorf("%w: %q is not a single literal", ErrType, attr)
	}
	return rel.Values[0].Literal, nil
}

// StringDefault returns attr's value or a default when absent.
func (r Request) StringDefault(attr, def string) string {
	if v, err := r.String2(attr); err == nil {
		return v
	}
	return def
}

// Int returns attr's value as an integer.
func (r Request) Int(attr string) (int, error) {
	s, err := r.String2(attr)
	if err != nil {
		return 0, err
	}
	n, err := strconv.Atoi(s)
	if err != nil {
		return 0, fmt.Errorf("%w: %q=%q is not an integer", ErrType, attr, s)
	}
	return n, nil
}

// IntDefault returns attr as an int or a default when absent/invalid.
func (r Request) IntDefault(attr string, def int) int {
	if n, err := r.Int(attr); err == nil {
		return n
	}
	return def
}

// Float returns attr's value as a float64.
func (r Request) Float(attr string) (float64, error) {
	s, err := r.String2(attr)
	if err != nil {
		return 0, err
	}
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("%w: %q=%q is not a number", ErrType, attr, s)
	}
	return f, nil
}

// Seconds returns attr interpreted as a duration in whole seconds
// (GRAM's maxWallTime convention is minutes; callers pick the unit). A
// negative, NaN or infinite value, or one past what a time.Duration holds
// (about 292 years), is ErrRange (sim.CheckedDuration).
func (r Request) Seconds(attr string) (time.Duration, error) {
	f, err := r.Float(attr)
	if err != nil {
		return 0, err
	}
	d, ok := sim.CheckedDuration(f * float64(time.Second))
	if !ok {
		return 0, fmt.Errorf("%w: %q=%v is not a duration", ErrRange, attr, f)
	}
	return d, nil
}

// Strings returns all literal values of attr (e.g. arguments).
func (r Request) Strings(attr string) ([]string, error) {
	rel, ok := r.Find(attr)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrMissing, attr)
	}
	out := make([]string, 0, len(rel.Values))
	for _, v := range rel.Values {
		if v.IsList() {
			return nil, fmt.Errorf("%w: %q contains a list", ErrType, attr)
		}
		out = append(out, v.Literal)
	}
	return out, nil
}

// Pairs decodes attr's value as a list of (name value) pairs, the RSL
// environment convention.
func (r Request) Pairs(attr string) (map[string]string, error) {
	rel, ok := r.Find(attr)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrMissing, attr)
	}
	out := make(map[string]string, len(rel.Values))
	for _, v := range rel.Values {
		if !v.IsList() || len(v.List) != 2 || v.List[0].IsList() || v.List[1].IsList() {
			return nil, fmt.Errorf("%w: %q entries must be (name value) pairs", ErrType, attr)
		}
		out[v.List[0].Literal] = v.List[1].Literal
	}
	return out, nil
}
