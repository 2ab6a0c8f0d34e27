package problems

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strconv"
)

// Spec is the wire form of a solve request's problem: either a seeded
// generator reference (family + scale + case) or an explicit instance in
// the problemFile schema of serialize.go. Exactly one of the two modes
// must be populated.
//
// Specs have a canonical byte encoding (Canonical) so that semantically
// identical requests hash to the same content address — the serving
// layer keys its result cache on that hash.
type Spec struct {
	// Family/Scale/Case reference one seeded benchmark-generator
	// instance, e.g. {"family":"FLP","scale":2,"case":0}.
	Family string `json:"family,omitempty"`
	Scale  int    `json:"scale,omitempty"`
	Case   int    `json:"case,omitempty"`

	// Problem carries an explicit instance (objective + constraints) in
	// the JSON schema of ToJSON/FromJSON.
	Problem json.RawMessage `json:"problem,omitempty"`
}

// MaxSpecCase bounds the generator case index a spec may request,
// purely as a defensive limit for network-facing parsers.
const MaxSpecCase = 1 << 20

// ParseSpec decodes and validates a spec. Unknown fields are rejected so
// that typos ("familly") fail loudly instead of silently selecting the
// default instance.
func ParseSpec(data []byte) (*Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("problems: spec: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("problems: spec: trailing data after JSON object")
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// KnownFamily reports whether f is one of the five benchmark families.
func KnownFamily(f string) bool {
	for _, k := range Families {
		if k == f {
			return true
		}
	}
	return false
}

// Validate checks the spec's internal consistency without building the
// instance (explicit problems are fully validated by Build).
func (s *Spec) Validate() error {
	hasGen := s.Family != "" || s.Scale != 0 || s.Case != 0
	hasInline := len(s.Problem) > 0
	switch {
	case hasGen && hasInline:
		return fmt.Errorf("problems: spec: family/scale/case and an explicit problem are mutually exclusive")
	case !hasGen && !hasInline:
		return fmt.Errorf("problems: spec: empty — set family/scale/case or an explicit problem")
	case hasInline:
		return nil
	}
	if !KnownFamily(s.Family) {
		return fmt.Errorf("problems: spec: unknown family %q (known: FLP, KPP, JSP, SCP, GCP)", s.Family)
	}
	if s.Scale < 1 || s.Scale > 4 {
		return fmt.Errorf("problems: spec: scale %d out of range [1,4]", s.Scale)
	}
	if s.Case < 0 || s.Case > MaxSpecCase {
		return fmt.Errorf("problems: spec: case %d out of range [0,%d]", s.Case, MaxSpecCase)
	}
	return nil
}

// Canonical returns the canonical byte encoding of the spec: compact
// JSON with a fixed field order, identical for every wire form that
// denotes the same instance. It validates the spec (including an
// explicit problem payload) as a side effect.
func (s *Spec) Canonical() ([]byte, error) {
	data, _, err := s.canonical()
	return data, err
}

// canonical returns the canonical encoding and, for an explicit
// instance, the problem decoded to produce it (nil for a generator
// spec). The two shapes are
//
//	{"kind":"generator","family":"FLP","scale":2,"case":0}
//	{"kind":"instance","case":0,"problem":<problem file>}
//
// where the problem file is json.Marshal of the decoded problem's file
// form, so coefficient formatting and field order cannot perturb the
// hash. Journals persist these hashes as cache keys, so the bytes must
// never move: they equal json.Marshal of the same shape with the problem
// as the compacted ToJSON output (compacting indented Marshal output
// restores it, and json.Marshal passes compact raw JSON through
// unchanged), which testdata/spec_hashes.json and FuzzSpecCanonical pin.
func (s *Spec) canonical() ([]byte, *Problem, error) {
	if err := s.Validate(); err != nil {
		return nil, nil, err
	}
	if len(s.Problem) == 0 {
		// Validate admits only the five family names, which need no
		// escaping.
		data := append([]byte(`{"kind":"generator","family":"`), s.Family...)
		data = append(data, `","scale":`...)
		data = strconv.AppendInt(data, int64(s.Scale), 10)
		data = append(data, `,"case":`...)
		data = strconv.AppendInt(data, int64(s.Case), 10)
		return append(data, '}'), nil, nil
	}
	p, err := FromJSON(s.Problem)
	if err != nil {
		return nil, nil, err
	}
	file, err := json.Marshal(fileOf(p))
	if err != nil {
		return nil, nil, fmt.Errorf("problems: spec: %w", err)
	}
	const head = `{"kind":"instance","case":0,"problem":`
	data := make([]byte, 0, len(head)+len(file)+1)
	data = append(append(append(data, head...), file...), '}')
	return data, p, nil
}

// Address returns the spec's content address (see Hash) and, for an
// explicit instance, the problem decoded on the way, so that a caller
// who goes on to solve it need not decode it again. The problem is nil
// for a generator spec, which is built only on demand.
func (s *Spec) Address() (string, *Problem, error) {
	data, p, err := s.canonical()
	if err != nil {
		return "", nil, err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), p, nil
}

// Hash returns the content address of the spec: the hex SHA-256 of its
// canonical encoding.
func (s *Spec) Hash() (string, error) {
	h, _, err := s.Address()
	return h, err
}

// Build materializes the instance the spec denotes.
func (s *Spec) Build() (*Problem, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if len(s.Problem) > 0 {
		return FromJSON(s.Problem)
	}
	return Benchmark{Family: s.Family, Scale: s.Scale}.Generate(s.Case), nil
}

// SpecFor returns the generator spec of one benchmark case, the inverse
// of Build for generator-mode specs.
func SpecFor(b Benchmark, caseIdx int) *Spec {
	return &Spec{Family: b.Family, Scale: b.Scale, Case: caseIdx}
}
