package oracle_test

import (
	"fmt"
	"strings"
	"testing"

	"policyoracle/internal/oracle"
)

// BenchmarkLoadWideClass loads one class of n one-line methods, each
// calling the next. IR lowering resolves one call site per method
// through the class's name index, so the load is linear in n: doubling n
// should about double the time.
func BenchmarkLoadWideClass(b *testing.B) {
	for _, n := range []int{10_000, 20_000} {
		var src strings.Builder
		src.WriteString("package p;\npublic class W {\n")
		for i := 0; i < n; i++ {
			fmt.Fprintf(&src, "  public void m%d() { m%d(); }\n", i, i+1)
		}
		fmt.Fprintf(&src, "  public void m%d() { }\n}\n", n)
		sources := map[string]string{"p/W.mj": src.String()}
		b.Run(fmt.Sprintf("methods=%d", n), func(b *testing.B) {
			b.SetBytes(int64(src.Len()))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := oracle.LoadLibrary("wide", sources); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
