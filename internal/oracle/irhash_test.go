package oracle_test

import (
	"testing"

	"policyoracle/internal/oracle"
	"policyoracle/internal/secmodel"
)

// overloadSources declares two overloads of C.f whose parameter types
// share the simple name Foo, so both hash under the one key C.f(Foo).
// first and second are their bodies, in declaration order; swap
// declares the b.Foo overload first.
func overloadSources(first, second string, swap bool) map[string]string {
	fa := "  public int f(a.Foo x) { " + first + " }\n"
	fb := "  public int f(b.Foo x) { " + second + " }\n"
	if swap {
		fa, fb = fb, fa
	}
	return map[string]string{
		"a.mj": "package a;\npublic class Foo { }\n",
		"b.mj": "package b;\npublic class Foo { }\n",
		"c.mj": "package p;\npublic class C {\n" + fa + fb + "}\n",
	}
}

// Colliding overloads' hashes are combined in declaration order: an edit
// to either overload changes the shared key's hash, and so does swapping
// their declarations.
func TestOverloadHashesCombineInDeclarationOrder(t *testing.T) {
	keyHash := func(srcs map[string]string) string {
		t.Helper()
		lib := loadLib(t, "lib", srcs)
		n := 0
		for _, m := range lib.Prog.Types.AllMethods() {
			if m.Qualified() == "p.C.f(Foo)" {
				n++
			}
		}
		if n != 2 {
			t.Fatalf("%d methods under p.C.f(Foo), want the two overloads", n)
		}
		h := oracle.MethodHashes(lib.Prog, lib.Resolver, secmodel.SecurityManager())
		got, ok := h["p.C.f(Foo)"]
		if !ok {
			t.Fatalf("no hash for p.C.f(Foo) in %v", h)
		}
		return got
	}
	base := keyHash(overloadSources("return 1;", "return 2;", false))
	for name, srcs := range map[string]map[string]string{
		"first overload edited":  overloadSources("return 3;", "return 2;", false),
		"second overload edited": overloadSources("return 1;", "return 3;", false),
		"declarations swapped":   overloadSources("return 1;", "return 2;", true),
	} {
		if keyHash(srcs) == base {
			t.Errorf("%s: p.C.f(Foo) hashes as before", name)
		}
	}
}
