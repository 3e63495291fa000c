package classad

// AttrRequirements is the attribute name matchmaking consults, following
// Condor convention.
const AttrRequirements = "Requirements"

// EvalExprAgainst evaluates expression e as if it were an attribute of
// self being matched against other. Hawkeye Manager constraint queries use
// this to test a constraint expression against each Startd ClassAd.
func EvalExprAgainst(e Expr, self, other *Ad) Value {
	ctx := &evalCtx{a: self, b: other, cur: self}
	return e.eval(ctx)
}

// attrRequirementsLower is Requirements' precomputed lookup key.
const attrRequirementsLower = "requirements"

// satisfied interprets an evaluated Requirements value as matchmaking
// does: booleans count directly, numbers count as non-zero, undefined
// and error do not satisfy.
func satisfied(v Value) bool {
	n, ok := v.Number()
	return ok && n != 0
}

// isTrue interprets an evaluated constraint as a query does: only
// boolean true satisfies it.
func isTrue(v Value) bool {
	b, ok := v.BoolVal()
	return ok && b
}

// SatisfiedBy reports whether self's Requirements evaluate to true against
// other. A missing Requirements attribute is trivially satisfied (the ad
// imposes no constraint); undefined or error results are not satisfied.
func SatisfiedBy(self, other *Ad) bool {
	req, ok := self.lookupLower(attrRequirementsLower)
	if !ok {
		return true
	}
	ctx := evalCtx{a: self, b: other, cur: self}
	return satisfied(req.eval(&ctx))
}

// Match reports whether the two ads match symmetrically: each ad's
// Requirements must be satisfied by the other. This is the ClassAd
// Matchmaking operation the Hawkeye Manager performs between Trigger
// ClassAds and Startd ClassAds.
func Match(a, b *Ad) bool {
	return SatisfiedBy(a, b) && SatisfiedBy(b, a)
}

// CompiledMatch is one fixed ad prepared for repeated matchmaking: its
// Requirements expression is resolved once instead of on every Match,
// and the evaluation context is reused across candidates. The Hawkeye
// Manager compiles each submitted Trigger once and re-runs it against
// every advertised Startd ClassAd. Not safe for concurrent use — each
// goroutine needs its own CompiledMatch.
type CompiledMatch struct {
	self *Ad
	req  Expr // self's Requirements; nil when the ad imposes none
	ctx  evalCtx
}

// CompileMatch prepares self for repeated matching. The ad must not be
// mutated afterwards (replace the CompiledMatch instead).
func CompileMatch(self *Ad) *CompiledMatch {
	cm := &CompiledMatch{self: self}
	if e, ok := self.lookupLower(attrRequirementsLower); ok {
		cm.req = e
	}
	return cm
}

// Matches reports whether self and other match symmetrically, as Match
// would but holding self's Requirements, a trigger's constraint, to
// boolean true as a constraint query does; self's side goes first.
func (cm *CompiledMatch) Matches(other *Ad) bool {
	if cm.req != nil {
		cm.ctx = evalCtx{a: cm.self, b: other, cur: cm.self}
		if !isTrue(cm.req.eval(&cm.ctx)) {
			return false
		}
	}
	oreq, ok := other.lookupLower(attrRequirementsLower)
	if !ok {
		return true
	}
	cm.ctx = evalCtx{a: other, b: cm.self, cur: other}
	return satisfied(oreq.eval(&cm.ctx))
}

// CompiledConstraint is a constraint expression prepared for evaluation
// against many candidate ads — the Hawkeye Manager's pool-scan query.
// Semantics are exactly EvalExprAgainst(expr, empty, candidate) with a
// strict boolean test, the Manager's historical behavior. Not safe for
// concurrent use.
type CompiledConstraint struct {
	expr Expr
	ctx  evalCtx
}

// noAd is the empty ad every constraint is evaluated as: evaluation only
// reads it, so one is shared by all.
var noAd = NewAd()

// CompileConstraint prepares a constraint expression.
func CompileConstraint(e Expr) CompiledConstraint {
	return CompiledConstraint{expr: e}
}

// SatisfiedBy reports whether the candidate satisfies the constraint:
// the expression must evaluate to boolean true (numbers, undefined and
// error do not count).
func (cc *CompiledConstraint) SatisfiedBy(candidate *Ad) bool {
	cc.ctx = evalCtx{a: noAd, b: candidate, cur: noAd}
	return isTrue(cc.expr.eval(&cc.ctx))
}
