package core_test

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"rasengan/internal/core"
	"rasengan/internal/problems"
	"rasengan/internal/service"
)

// TestResultPayloadSameOnBothEngines checks that a solve's wire payload is
// the same bytes on the map engine and on the compiled engine, whose
// result tail reads the compiled plan's feasibility and energy tables:
// every family at scales 1–3, cases 0–2, a maximization instance, and
// solves with purification disabled.
func TestResultPayloadSameOnBothEngines(t *testing.T) {
	solve := func(p *problems.Problem, opts core.Options, engine string) []byte {
		t.Helper()
		opts.Exec.Engine = engine
		res, err := core.Solve(context.Background(), p, opts)
		if err != nil {
			t.Fatalf("%s on %s: %v", p.Name, engine, err)
		}
		data, err := service.MarshalResultPayload(p, res)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	check := func(name string, p *problems.Problem, opts core.Options) {
		t.Helper()
		compiled := solve(p, opts, core.EngineCompiled)
		if m := solve(p, opts, core.EngineMap); !bytes.Equal(compiled, m) {
			t.Fatalf("%s: payloads differ:\ncompiled %s\nmap      %s", name, compiled, m)
		}
	}
	for _, fam := range "FKJSG" {
		for scale := 1; scale <= 3; scale++ {
			b, err := problems.ByLabel(fmt.Sprintf("%c%d", fam, scale))
			if err != nil {
				t.Fatal(err)
			}
			for c := 0; c <= 2; c++ {
				p := b.Generate(c)
				check(p.Name, p, core.Options{MaxIter: 30, Seed: int64(c)})
				if scale == 1 {
					check(p.Name+" without purification", p, core.Options{MaxIter: 30, Seed: int64(c), Exec: core.ExecOptions{DisablePurify: true}})
				}
			}
		}
	}
	p, err := problems.NewBuilder("max-pick", 6).
		Maximize().
		Linear(0, 3).Linear(1, 5).Linear(2, 4).Linear(3, 1).Linear(4, 2).Linear(5, 6).
		Quad(1, 2, -2).Quad(0, 5, 1.5).
		Eq(map[int]int64{0: 1, 1: 1, 2: 1, 3: 1, 4: 1, 5: 1}, 3).
		Le(map[int]int64{1: 2, 2: 1, 5: 2}, 3).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	check(p.Name, p, core.Options{MaxIter: 30})
	check(p.Name+" without purification", p, core.Options{MaxIter: 30, Exec: core.ExecOptions{DisablePurify: true}})
}
