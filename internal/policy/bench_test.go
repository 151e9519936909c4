package policy_test

import (
	"testing"

	"policyoracle/internal/corpus/gen"
	"policyoracle/internal/oracle"
	"policyoracle/internal/policy"
)

// genSmallJDKBlob exports the policies of the gen.Small jdk library: the
// blob the store keeps for it, about 170 KB of indented JSON.
func genSmallJDKBlob(tb testing.TB) []byte {
	tb.Helper()
	l, err := oracle.LoadLibrary("jdk", gen.Generate(gen.Small()).Sources["jdk"])
	if err != nil {
		tb.Fatal(err)
	}
	l.Extract(oracle.DefaultOptions())
	blob, err := l.Policies.ExportJSON()
	if err != nil {
		tb.Fatal(err)
	}
	return blob
}

var benchImported *policy.ProgramPolicies

// BenchmarkImportJSON decodes one gen.Small jdk blob per op: the decode
// the store runs to validate a peer blob and to compute a diff.
func BenchmarkImportJSON(b *testing.B) {
	blob := genSmallJDKBlob(b)
	b.SetBytes(int64(len(blob)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pp, err := policy.ImportJSON(blob)
		if err != nil {
			b.Fatal(err)
		}
		benchImported = pp
	}
}
