package problems

import (
	"encoding/json"
	"fmt"

	"rasengan/internal/bitvec"
	"rasengan/internal/linalg"
)

// problemFile is the stable JSON schema for instance exchange: everything
// needed to reconstruct a Problem, with the objective in explicit
// coefficient form and constraints as dense rows.
type problemFile struct {
	Version  int            `json:"version"`
	Name     string         `json:"name"`
	Family   string         `json:"family"`
	NumVars  int            `json:"num_vars"`
	Sense    string         `json:"sense"`
	Constant float64        `json:"objective_constant,omitempty"`
	Linear   []float64      `json:"objective_linear"`
	Quad     []quadFileTerm `json:"objective_quad,omitempty"`
	Rows     [][]int64      `json:"constraint_rows"`
	RHS      []int64        `json:"constraint_rhs"`
	Init     string         `json:"initial_solution"`
	Meta     map[string]int `json:"meta,omitempty"`
}

type quadFileTerm struct {
	I    int     `json:"i"`
	J    int     `json:"j"`
	Coef float64 `json:"coef"`
}

const problemFileVersion = 1

// ToJSON serializes a problem instance.
func ToJSON(p *Problem) ([]byte, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return json.MarshalIndent(fileOf(p), "", "  ")
}

// fileOf returns the problemFile form of a valid problem.
func fileOf(p *Problem) problemFile {
	f := problemFile{
		Version:  problemFileVersion,
		Name:     p.Name,
		Family:   p.Family,
		NumVars:  p.N,
		Sense:    p.Sense.String(),
		Constant: p.Obj.Constant,
		Linear:   p.Obj.Linear,
		RHS:      p.B,
		Init:     p.Init.String(),
		Meta:     p.Meta,
	}
	for _, t := range p.Obj.Quad {
		f.Quad = append(f.Quad, quadFileTerm{I: t.I, J: t.J, Coef: t.Coef})
	}
	for r := 0; r < p.C.Rows; r++ {
		f.Rows = append(f.Rows, p.C.Row(r))
	}
	return f
}

// FromJSON reconstructs and validates a problem instance.
func FromJSON(data []byte) (*Problem, error) {
	var f problemFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("problems: instance file: %w", err)
	}
	if f.Version != problemFileVersion {
		return nil, fmt.Errorf("problems: instance file version %d, want %d", f.Version, problemFileVersion)
	}
	if f.NumVars <= 0 || f.NumVars > bitvec.MaxBits {
		return nil, fmt.Errorf("problems: instance has %d variables (max %d)", f.NumVars, bitvec.MaxBits)
	}
	if len(f.Linear) != f.NumVars {
		return nil, fmt.Errorf("problems: %d linear coefficients for %d variables", len(f.Linear), f.NumVars)
	}
	if len(f.Rows) != len(f.RHS) {
		return nil, fmt.Errorf("problems: %d constraint rows but %d rhs entries", len(f.Rows), len(f.RHS))
	}
	sense := Minimize
	switch f.Sense {
	case "min", "":
	case "max":
		sense = Maximize
	default:
		return nil, fmt.Errorf("problems: unknown sense %q", f.Sense)
	}
	obj := NewQuadObjective(f.NumVars)
	obj.Constant = f.Constant
	copy(obj.Linear, f.Linear)
	for _, t := range f.Quad {
		if t.I < 0 || t.J < 0 || t.I >= f.NumVars || t.J >= f.NumVars {
			return nil, fmt.Errorf("problems: quad term (%d,%d) out of range", t.I, t.J)
		}
		obj.AddQuad(t.I, t.J, t.Coef)
	}
	obj.Normalize()
	C := linalg.NewIntMat(len(f.Rows), f.NumVars)
	for r, row := range f.Rows {
		if len(row) != f.NumVars {
			return nil, fmt.Errorf("problems: constraint row %d has %d entries, want %d", r, len(row), f.NumVars)
		}
		for c, v := range row {
			C.Set(r, c, v)
		}
	}
	init, err := bitvec.FromString(f.Init)
	if err != nil {
		return nil, fmt.Errorf("problems: initial solution: %w", err)
	}
	p := &Problem{
		Name:   f.Name,
		Family: f.Family,
		N:      f.NumVars,
		Sense:  sense,
		Obj:    obj,
		C:      C,
		B:      f.RHS,
		Init:   init,
		Meta:   f.Meta,
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}
