package classad

import (
	"math"
	"strings"
	"unicode/utf8"
)

// maxEvalDepth bounds recursive attribute resolution; self-referential
// attributes evaluate to error rather than looping.
const maxEvalDepth = 64

// evalCtx tracks the two ads of a (possibly one-sided) evaluation and the
// ad whose expression is currently being resolved. When an attribute of the
// other ad is referenced, the context flips: MY inside that attribute's
// expression means the other ad.
type evalCtx struct {
	a, b  *Ad // the participating ads; b may be nil
	cur   *Ad // the ad owning the expression under evaluation
	depth int
}

func (ctx *evalCtx) other() *Ad {
	if ctx.cur == ctx.a {
		return ctx.b
	}
	return ctx.a
}

func (a attrRef) eval(ctx *evalCtx) Value {
	// resolve evaluates the attribute in ad's scope by mutating and
	// restoring ctx — evaluation is strictly sequential, so reusing the
	// context avoids an allocation per attribute resolution.
	resolve := func(ad *Ad) (Value, bool) {
		if ad == nil {
			return Undefined(), false
		}
		e, ok := ad.lookupLower(a.lower)
		if !ok {
			return Undefined(), false
		}
		if ctx.depth+1 > maxEvalDepth {
			return ErrorValue("attribute recursion limit hit at %q", a.name), true
		}
		savedCur, savedDepth := ctx.cur, ctx.depth
		ctx.cur, ctx.depth = ad, savedDepth+1
		v := e.eval(ctx)
		ctx.cur, ctx.depth = savedCur, savedDepth
		return v, true
	}
	switch a.sc {
	case scopeMy:
		v, _ := resolve(ctx.cur)
		return v
	case scopeTarget:
		v, _ := resolve(ctx.other())
		return v
	default:
		if v, ok := resolve(ctx.cur); ok {
			return v
		}
		v, _ := resolve(ctx.other())
		return v
	}
}

func (u unary) eval(ctx *evalCtx) Value {
	x := u.x.eval(ctx)
	if x.IsError() {
		return x
	}
	switch u.op {
	case "!":
		if x.IsUndefined() {
			return x
		}
		if b, ok := x.BoolVal(); ok {
			return Bool(!b)
		}
		return ErrorValue("! applied to %s", x.Kind())
	case "-":
		if x.IsUndefined() {
			return x
		}
		if i, ok := x.IntVal(); ok {
			return Int(-i)
		}
		if r, ok := x.RealVal(); ok {
			return Real(-r)
		}
		return ErrorValue("unary - applied to %s", x.Kind())
	}
	return ErrorValue("unknown unary operator %q", u.op)
}

func (b binary) eval(ctx *evalCtx) Value {
	switch b.op {
	case "&&":
		return evalAnd(ctx, b.l, b.r)
	case "||":
		return evalOr(ctx, b.l, b.r)
	}
	l := b.l.eval(ctx)
	r := b.r.eval(ctx)
	switch b.op {
	case "=?=":
		return Bool(l.SameAs(r))
	case "=!=":
		return Bool(!l.SameAs(r))
	}
	if l.IsError() {
		return l
	}
	if r.IsError() {
		return r
	}
	if l.IsUndefined() || r.IsUndefined() {
		return Undefined()
	}
	switch b.op {
	case "+", "-", "*", "/", "%":
		return evalArith(b.op, l, r)
	case "==", "!=", "<", "<=", ">", ">=":
		return evalCompare(b.op, l, r)
	}
	return ErrorValue("unknown operator %q", b.op)
}

// evalAnd implements tri-state conjunction: false dominates undefined.
func evalAnd(ctx *evalCtx, le, re Expr) Value {
	l := le.eval(ctx)
	if l.IsError() {
		return l
	}
	if lb, ok := l.BoolVal(); ok && !lb {
		return Bool(false)
	}
	if !l.IsUndefined() {
		if _, ok := l.BoolVal(); !ok {
			if n, ok := l.Number(); ok {
				if n == 0 {
					return Bool(false)
				}
			} else {
				return ErrorValue("&& applied to %s", l.Kind())
			}
		}
	}
	r := re.eval(ctx)
	if r.IsError() {
		return r
	}
	if rb, ok := r.BoolVal(); ok {
		if !rb {
			return Bool(false)
		}
		if l.IsUndefined() {
			return Undefined()
		}
		return Bool(true)
	}
	if r.IsUndefined() {
		return Undefined()
	}
	if n, ok := r.Number(); ok {
		if n == 0 {
			return Bool(false)
		}
		if l.IsUndefined() {
			return Undefined()
		}
		return Bool(true)
	}
	return ErrorValue("&& applied to %s", r.Kind())
}

// evalOr implements tri-state disjunction: true dominates undefined.
func evalOr(ctx *evalCtx, le, re Expr) Value {
	l := le.eval(ctx)
	if l.IsError() {
		return l
	}
	if lb, ok := l.BoolVal(); ok && lb {
		return Bool(true)
	}
	if !l.IsUndefined() {
		if _, ok := l.BoolVal(); !ok {
			if n, ok := l.Number(); ok {
				if n != 0 {
					return Bool(true)
				}
			} else {
				return ErrorValue("|| applied to %s", l.Kind())
			}
		}
	}
	r := re.eval(ctx)
	if r.IsError() {
		return r
	}
	if rb, ok := r.BoolVal(); ok {
		if rb {
			return Bool(true)
		}
		if l.IsUndefined() {
			return Undefined()
		}
		return Bool(false)
	}
	if r.IsUndefined() {
		return Undefined()
	}
	if n, ok := r.Number(); ok {
		if n != 0 {
			return Bool(true)
		}
		if l.IsUndefined() {
			return Undefined()
		}
		return Bool(false)
	}
	return ErrorValue("|| applied to %s", r.Kind())
}

func evalArith(op string, l, r Value) Value {
	li, lIsInt := l.IntVal()
	ri, rIsInt := r.IntVal()
	if lIsInt && rIsInt {
		switch op {
		case "+":
			return Int(li + ri)
		case "-":
			return Int(li - ri)
		case "*":
			return Int(li * ri)
		case "/":
			if ri == 0 {
				return ErrorValue("integer division by zero")
			}
			return Int(li / ri)
		case "%":
			if ri == 0 {
				return ErrorValue("integer modulo by zero")
			}
			return Int(li % ri)
		}
	}
	lf, lok := l.Number()
	rf, rok := r.Number()
	if !lok || !rok {
		return ErrorValue("%s applied to %s and %s", op, l.Kind(), r.Kind())
	}
	switch op {
	case "+":
		return Real(lf + rf)
	case "-":
		return Real(lf - rf)
	case "*":
		return Real(lf * rf)
	case "/":
		if rf == 0 {
			return ErrorValue("division by zero")
		}
		return Real(lf / rf)
	case "%":
		if rf == 0 {
			return ErrorValue("modulo by zero")
		}
		return Real(math.Mod(lf, rf))
	}
	return ErrorValue("unknown arithmetic operator %q", op)
}

func evalCompare(op string, l, r Value) Value {
	ls, lIsStr := l.StringVal()
	rs, rIsStr := r.StringVal()
	if lIsStr && rIsStr {
		// Old-ClassAd string comparison is case-insensitive; =?= is the
		// case-sensitive identity test.
		return cmpResult(op, compareFold(ls, rs))
	}
	if lIsStr != rIsStr {
		return ErrorValue("%s applied to %s and %s", op, l.Kind(), r.Kind())
	}
	lf, lok := l.Number()
	rf, rok := r.Number()
	if !lok || !rok {
		return ErrorValue("%s applied to %s and %s", op, l.Kind(), r.Kind())
	}
	switch {
	case lf < rf:
		return cmpResult(op, -1)
	case lf > rf:
		return cmpResult(op, 1)
	default:
		return cmpResult(op, 0)
	}
}

// compareFold is strings.Compare(strings.ToLower(a), strings.ToLower(b)).
// Two ASCII strings are compared folding as it goes, with no lowered
// copy; any other pair is lowered, since Unicode folding can change a
// string's length and its order ("İ", "ſ", the Kelvin sign).
func compareFold(a, b string) int {
	if !isASCII(a) || !isASCII(b) {
		return strings.Compare(strings.ToLower(a), strings.ToLower(b))
	}
	for i := 0; i < len(a) && i < len(b); i++ {
		if c, d := lowerASCII(a[i]), lowerASCII(b[i]); c != d {
			if c < d {
				return -1
			}
			return 1
		}
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	}
	return 0
}

// isASCII reports whether s has no byte above 0x7f.
func isASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= utf8.RuneSelf {
			return false
		}
	}
	return true
}

// lowerASCII lower-cases one ASCII letter and leaves any other byte.
func lowerASCII(c byte) byte {
	if 'A' <= c && c <= 'Z' {
		return c + 'a' - 'A'
	}
	return c
}

func cmpResult(op string, cmp int) Value {
	switch op {
	case "==":
		return Bool(cmp == 0)
	case "!=":
		return Bool(cmp != 0)
	case "<":
		return Bool(cmp < 0)
	case "<=":
		return Bool(cmp <= 0)
	case ">":
		return Bool(cmp > 0)
	case ">=":
		return Bool(cmp >= 0)
	}
	return ErrorValue("unknown comparison %q", op)
}

func (c cond) eval(ctx *evalCtx) Value {
	cv := c.c.eval(ctx)
	if cv.IsError() || cv.IsUndefined() {
		return cv
	}
	b, ok := cv.BoolVal()
	if !ok {
		if n, isNum := cv.Number(); isNum {
			b = n != 0
		} else {
			return ErrorValue("?: condition is %s", cv.Kind())
		}
	}
	if b {
		return c.t.eval(ctx)
	}
	return c.f.eval(ctx)
}

func (l listExpr) eval(ctx *evalCtx) Value {
	items := make([]Value, len(l.items))
	for i, e := range l.items {
		items[i] = e.eval(ctx)
	}
	return List(items...)
}

func (a adExpr) eval(ctx *evalCtx) Value {
	ad := NewAd()
	for i := range a.names {
		ad.Set(a.names[i], a.exprs[i])
	}
	return AdValue(ad)
}

func (c call) eval(ctx *evalCtx) Value {
	fn := builtins[strings.ToLower(c.name)]
	if fn == nil {
		return ErrorValue("unknown function %q", c.name)
	}
	return fn(ctx, c.args)
}
