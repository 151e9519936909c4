package lexer_test

import (
	"runtime"
	"strings"
	"testing"

	"policyoracle/internal/corpus/gen"
	"policyoracle/internal/lang"
	"policyoracle/internal/lexer"
	"policyoracle/internal/token"
)

// BenchmarkTokenize scans the gen.Small jdk library at the 48×8 shape
// the other extraction benchmarks use, one Tokenize per source file.
func BenchmarkTokenize(b *testing.B) {
	p := gen.Small()
	p.Classes, p.MethodsPerClass = 48, 8
	sources := gen.Generate(p).Sources["jdk"]
	size := 0
	for _, src := range sources {
		size += len(src)
	}
	b.SetBytes(int64(size))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var diags lang.Diagnostics
		for name, src := range sources {
			lexer.Tokenize(name, src, &diags)
		}
		if diags.HasErrors() {
			b.Fatal(diags.Err())
		}
	}
}

// TestTokenizeCommentAllocs guards the token slice's initial capacity:
// sizing it from the source length alone would allocate for hundreds of
// thousands of tokens that a file of one block comment does not have.
func TestTokenizeCommentAllocs(t *testing.T) {
	src := "/*" + strings.Repeat("comment\n", 1<<17) + "*/"
	var diags lang.Diagnostics
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	toks := lexer.Tokenize("c.mj", src, &diags)
	runtime.ReadMemStats(&after)
	if len(toks) != 1 || toks[0].Kind != token.EOF || len(diags.All()) != 0 {
		t.Fatalf("got %d tokens, %d diagnostics; want only EOF", len(toks), len(diags.All()))
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 64<<10 {
		t.Errorf("tokenizing a %d-byte comment allocated %d bytes, want < 64 KiB", len(src), got)
	}
}
