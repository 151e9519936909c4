package constprop

import "testing"

func TestValueStrings(t *testing.T) {
	cases := map[string]Value{
		"undef":   UndefVal(),
		"varies":  VariesVal(),
		"7":       IntVal(7),
		"true":    BoolVal(true),
		`"s"`:     StrVal("s"),
		"null":    NullVal(),
		"nonnull": NonNullVal(),
	}
	for want, v := range cases {
		if got := v.String(); got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
}

func TestEvalUnaryNonConst(t *testing.T) {
	if got := evalUnary("!", VariesVal()); got.Kind != Varies {
		t.Errorf("!varies = %v", got)
	}
	if got := evalUnary("-", UndefVal()); got.Kind != Undef {
		t.Errorf("-undef = %v", got)
	}
	if got := evalUnary("-", BoolVal(true)); got.Kind != Varies {
		t.Errorf("-bool = %v", got)
	}
}

func TestEvalBinaryBoolOps(t *testing.T) {
	if got := evalBinary("&", BoolVal(true), BoolVal(false)); got != BoolVal(false) {
		t.Errorf("true & false = %v", got)
	}
	if got := evalBinary("|", BoolVal(true), BoolVal(false)); got != BoolVal(true) {
		t.Errorf("true | false = %v", got)
	}
	if got := evalBinary("^", BoolVal(true), BoolVal(true)); got != BoolVal(false) {
		t.Errorf("true ^ true = %v", got)
	}
	if got := evalBinary("+", StrVal("a"), StrVal("b")); got != StrVal("ab") {
		t.Errorf("string concat = %v", got)
	}
	if got := evalBinary("==", StrVal("a"), StrVal("a")); got != BoolVal(true) {
		t.Errorf("string eq = %v", got)
	}
	if got := evalBinary("+", VariesVal(), IntVal(1)); got.Kind != Varies {
		t.Errorf("varies + 1 = %v", got)
	}
}

func TestNewArrayAndCastTransfer(t *testing.T) {
	f := lowerFunc(t, `
int[] a = new int[2];
a[0] = 1;
int v = a[0];
Object o = (Object) null;
if (o == null) { f = 1; } else { f = 2; }
`, "")
	r := Analyze(f, nil, Config{}, new(Scratch))
	// The cast preserves null, so the else branch is dead.
	if liveCount(f, r) == len(f.Blocks) {
		t.Errorf("cast-preserved null not folded:\n%s", f.Dump())
	}
}
