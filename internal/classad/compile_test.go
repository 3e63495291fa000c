package classad

import (
	"fmt"
	"math/rand"
	"testing"
)

// requirementsCorpus spans the match semantics: plain comparisons,
// TARGET/MY scoping, tri-state logic with undefined attributes, numeric
// requirements, errors, and recursion through other attributes.
var requirementsCorpus = []string{
	"TARGET.CpuLoad > 50",
	"TARGET.CpuLoad > 50 && TARGET.OpSys == \"LINUX\"",
	"TARGET.CpuLoad > 50 || TARGET.FreeDisk > 100",
	"MY.MinLoad <= TARGET.CpuLoad",
	"CpuLoad >= 0", // unqualified: self first, then target
	"TARGET.NoSuchAttr > 10",
	"TARGET.NoSuchAttr =?= UNDEFINED",
	"1",     // numeric requirement counts as non-zero
	"0",     // numeric zero fails
	"\"x\"", // string requirement is an error value: no match
	"ifThenElse(TARGET.CpuLoad > 50, true, false)",
	"TARGET.Tier == MY.Tier",
	"!(TARGET.CpuLoad < 25)",
}

func randomAd(rng *rand.Rand, withReq bool) *Ad {
	ad := NewAd()
	ad.SetString("Name", fmt.Sprintf("m%02d", rng.Intn(30)))
	ad.SetReal("CpuLoad", float64(rng.Intn(100)))
	if rng.Intn(2) == 0 {
		ad.SetString("OpSys", []string{"LINUX", "SOLARIS"}[rng.Intn(2)])
	}
	if rng.Intn(3) == 0 {
		ad.SetInt("FreeDisk", int64(rng.Intn(200)))
	}
	if rng.Intn(3) == 0 {
		ad.SetInt("Tier", int64(rng.Intn(3)))
	}
	ad.SetInt("MinLoad", int64(rng.Intn(50)))
	if withReq {
		src := requirementsCorpus[rng.Intn(len(requirementsCorpus))]
		if err := ad.SetExprString(AttrRequirements, src); err != nil {
			panic(err)
		}
	}
	return ad
}

// TestCompileMatchDifferential holds CompiledMatch.Matches to Match over
// randomized ad pairs (including ads with no Requirements on either
// side), re-using one CompiledMatch across many candidates the way the
// Manager does, but for the compiled ad's own Requirements, which is
// held to the constraint query's strict boolean test: a numeric
// Requirements there ("1") matches nothing.
func TestCompileMatchDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		a := randomAd(rng, rng.Intn(4) != 0)
		cm := CompileMatch(a)
		for i := 0; i < 10; i++ {
			b := randomAd(rng, rng.Intn(2) == 0)
			want := Match(a, b)
			if req, ok := a.Lookup(AttrRequirements); ok {
				v, isBool := EvalExprAgainst(req, a, b).BoolVal()
				want = isBool && v && SatisfiedBy(b, a)
			}
			if got := cm.Matches(b); got != want {
				t.Fatalf("trial %d: CompileMatch(%s).Matches(%s) = %v, want %v",
					trial, a, b, got, want)
			}
		}
	}
}

// TestCompileConstraintDifferential holds CompiledConstraint.SatisfiedBy
// to the Manager's historical constraint semantics: EvalExprAgainst
// against an empty self ad with a strict boolean test.
func TestCompileConstraintDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	constraints := []string{
		"TARGET.CpuLoad > 50",
		"TARGET.OpSys == \"LINUX\"",
		"TARGET.NoSuchAttr > 1",
		"TARGET.CpuLoad", // numeric, not boolean: strict test rejects
		"TARGET.CpuLoad > 50 && TARGET.FreeDisk > 100",
	}
	for _, src := range constraints {
		expr := MustParseExpr(src)
		cc := CompileConstraint(expr)
		empty := NewAd()
		for i := 0; i < 50; i++ {
			ad := randomAd(rng, false)
			v := EvalExprAgainst(expr, empty, ad)
			b, ok := v.BoolVal()
			want := ok && b
			if got := cc.SatisfiedBy(ad); got != want {
				t.Fatalf("constraint %q vs %s: compiled %v, reference %v", src, ad, got, want)
			}
		}
	}
}
