package policy_test

import (
	"bytes"
	"testing"

	"policyoracle/internal/corpus"
	"policyoracle/internal/corpus/gen"
	"policyoracle/internal/diff"
	"policyoracle/internal/oracle"
	"policyoracle/internal/policy"
	"policyoracle/internal/secmodel"
)

// TestExportRoundTripAllCorpora is the export/import property test on
// real extracted policies — invariant (d) of the metamorphic checker run
// in plain `go test` over every corpus bundle: the three hand-written
// implementations and the three generated ones. Export must be a byte
// fixed point of import, and the imported policies must diff clean
// against the originals in both directions.
func TestExportRoundTripAllCorpora(t *testing.T) {
	bundles := map[string]map[string]string{}
	for _, lib := range corpus.Libraries() {
		bundles[lib] = corpus.Sources(lib)
	}
	for lib, srcs := range gen.Generate(gen.Small()).Sources {
		bundles["gen-"+lib] = srcs
	}
	for name, srcs := range bundles {
		t.Run(name, func(t *testing.T) {
			l, err := oracle.LoadLibrary(name, srcs)
			if err != nil {
				t.Fatal(err)
			}
			l.Extract(oracle.DefaultOptions())
			b1, err := l.Policies.ExportJSON()
			if err != nil {
				t.Fatal(err)
			}
			imported, err := policy.ImportJSON(b1)
			if err != nil {
				t.Fatalf("re-importing export: %v", err)
			}
			b2, err := imported.ExportJSON()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(b1, b2) {
				t.Fatalf("export not byte-identical after round-trip (%d vs %d bytes)", len(b1), len(b2))
			}
			for _, rep := range []*diff.Report{
				diff.Compare(l.Policies, imported),
				diff.Compare(imported, l.Policies),
			} {
				for _, g := range rep.Groups {
					t.Errorf("imported policies diff against original: %s %s at %v",
						g.Case, g.DiffChecks.StringIn(secmodel.SecurityManager()), g.Entries[:1])
				}
			}
		})
	}
}
