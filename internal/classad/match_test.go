package classad

import (
	"testing"
	"testing/quick"
)

// startdAd builds a machine-style ad like a Hawkeye Agent advertises.
func startdAd(name string, cpuLoad float64, disk int64) *Ad {
	ad := NewAd()
	ad.SetString("Name", name)
	ad.SetString("OpSys", "LINUX")
	ad.SetReal("CpuLoad", cpuLoad)
	ad.SetInt("FreeDisk", disk)
	return ad
}

func TestTriggerMatchesOverloadedMachine(t *testing.T) {
	// The paper's example: a Trigger ClassAd for CPU load > 50 that kills
	// Netscape on the matched machine.
	trigger := NewAd()
	trigger.Set(AttrRequirements, MustParseExpr("TARGET.CpuLoad > 50"))
	trigger.SetString("Job", "kill-netscape")

	busy := startdAd("lucky4", 80, 1000)
	idle := startdAd("lucky5", 5, 1000)

	if !Match(trigger, busy) {
		t.Fatal("trigger failed to match busy machine")
	}
	if Match(trigger, idle) {
		t.Fatal("trigger matched idle machine")
	}
}

func TestSymmetricRequirements(t *testing.T) {
	a := NewAd()
	a.Set(AttrRequirements, MustParseExpr(`TARGET.OpSys == "LINUX"`))
	a.SetString("OpSys", "SOLARIS")

	b := NewAd()
	b.Set(AttrRequirements, MustParseExpr(`TARGET.OpSys == "LINUX"`))
	b.SetString("OpSys", "LINUX")

	// a requires b to be LINUX (yes); b requires a to be LINUX (no).
	if Match(a, b) {
		t.Fatal("asymmetric requirements matched")
	}
}

func TestMissingRequirementsIsTriviallySatisfied(t *testing.T) {
	a := NewAd()
	b := NewAd()
	if !Match(a, b) {
		t.Fatal("two unconstrained ads did not match")
	}
}

func TestUndefinedRequirementDoesNotMatch(t *testing.T) {
	trigger := NewAd()
	trigger.Set(AttrRequirements, MustParseExpr("TARGET.NoSuchAttr > 50"))
	if Match(trigger, startdAd("m", 10, 10)) {
		t.Fatal("undefined requirement matched")
	}
}

func TestMyVsTargetScoping(t *testing.T) {
	job := NewAd()
	job.SetInt("Memory", 512)
	job.Set(AttrRequirements, MustParseExpr("TARGET.Memory >= MY.Memory"))

	small := NewAd()
	small.SetInt("Memory", 256)
	big := NewAd()
	big.SetInt("Memory", 1024)

	if SatisfiedBy(job, small) {
		t.Fatal("job satisfied by too-small machine")
	}
	if !SatisfiedBy(job, big) {
		t.Fatal("job not satisfied by big machine")
	}
}

func TestUnqualifiedRefFallsThroughToTarget(t *testing.T) {
	// An unqualified name missing in self resolves in target — the old
	// ClassAd convention that lets triggers say just "CpuLoad > 50".
	trigger := NewAd()
	trigger.Set(AttrRequirements, MustParseExpr("CpuLoad > 50"))
	if !SatisfiedBy(trigger, startdAd("m", 80, 0)) {
		t.Fatal("unqualified reference did not resolve in target")
	}
}

func TestEvalExprAgainst(t *testing.T) {
	constraint := MustParseExpr("TARGET.CpuLoad > 50 && TARGET.OpSys == \"LINUX\"")
	self := NewAd() // the query's ad is empty
	if v := EvalExprAgainst(constraint, self, startdAd("m", 80, 0)); !v.SameAs(Bool(true)) {
		t.Fatalf("constraint = %v, want true", v)
	}
}

// Property: for random integer attributes, Match is symmetric in its
// requirement evaluation — Match(a,b) equals SatisfiedBy(a,b) &&
// SatisfiedBy(b,a).
func TestMatchDecompositionProperty(t *testing.T) {
	f := func(x, y int16) bool {
		a := NewAd()
		a.SetInt("V", int64(x))
		a.Set(AttrRequirements, MustParseExpr("TARGET.V >= MY.V"))
		b := NewAd()
		b.SetInt("V", int64(y))
		b.Set(AttrRequirements, MustParseExpr("TARGET.V <= MY.V"))
		return Match(a, b) == (SatisfiedBy(a, b) && SatisfiedBy(b, a))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: meta-equality is an equivalence on values generated from
// integers (reflexive and symmetric here).
func TestMetaEqualityProperty(t *testing.T) {
	f := func(x, y int32) bool {
		vx, vy := Int(int64(x)), Int(int64(y))
		if !vx.SameAs(vx) {
			return false
		}
		return vx.SameAs(vy) == vy.SameAs(vx)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: De Morgan holds for defined booleans.
func TestDeMorganProperty(t *testing.T) {
	f := func(p, q bool) bool {
		ad := NewAd()
		ad.SetBool("p", p)
		ad.SetBool("q", q)
		lhs := ad.EvalExpr(MustParseExpr("!(p && q)"))
		rhs := ad.EvalExpr(MustParseExpr("!p || !q"))
		return lhs.SameAs(rhs)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: integer arithmetic in the ClassAd evaluator agrees with Go.
func TestArithmeticAgreesWithGoProperty(t *testing.T) {
	f := func(x, y int16) bool {
		ad := NewAd()
		ad.SetInt("x", int64(x))
		ad.SetInt("y", int64(y))
		sum := ad.EvalExpr(MustParseExpr("x + y"))
		prod := ad.EvalExpr(MustParseExpr("x * y"))
		return sum.SameAs(Int(int64(x)+int64(y))) && prod.SameAs(Int(int64(x)*int64(y)))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Unparse/ParseAd round-trips ads built from random scalar
// attributes.
func TestAdRoundTripProperty(t *testing.T) {
	f := func(i int32, r float64, s string, b bool) bool {
		if r != r || r > 1e305 || r < -1e305 { // NaN/Inf don't have literals
			r = 0.5
		}
		ad := NewAd()
		ad.SetInt("I", int64(i))
		ad.SetReal("R", r)
		ad.SetBool("B", b)
		ad.SetString("S", s)
		again, err := ParseAd(ad.Unparse())
		if err != nil {
			return false
		}
		return ad.sameAs(again)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
