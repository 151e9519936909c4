package policy_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
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

// TestImportMatchesReferenceOnExports checks ImportJSON against the
// encoding/json importer it replaced on real exports: the bundled
// corpora and gen.Small and gen.CryptoSmall seeds 1–6, each as exported
// and rewritten three ways — compacted, indented with tabs, and with every
// object's keys reversed, which puts a crypto blob's domain after its
// entries. Both importers must accept every form and re-export the
// original bytes.
func TestImportMatchesReferenceOnExports(t *testing.T) {
	type lib struct {
		name string
		srcs map[string]string
		dom  *secmodel.Domain
	}
	var libs []lib
	for _, name := range corpus.Libraries() {
		libs = append(libs, lib{name, corpus.Sources(name), secmodel.SecurityManager()})
	}
	for seed := int64(1); seed <= 6; seed++ {
		for _, p := range []gen.Params{gen.Small(), gen.CryptoSmall()} {
			p.Seed = seed
			dom, err := secmodel.ResolveDomain(p.Domain)
			if err != nil {
				t.Fatal(err)
			}
			c := gen.Generate(p)
			for _, name := range []string{"jdk", "harmony", "classpath"} {
				libs = append(libs, lib{fmt.Sprintf("%s-%d-%s", dom.ID(), seed, name), c.Sources[name], dom})
			}
		}
	}
	for _, lb := range libs {
		l, err := oracle.LoadLibrary(lb.name, lb.srcs)
		if err != nil {
			t.Fatal(err)
		}
		opts := oracle.DefaultOptions()
		opts.Domain = lb.dom
		l.Extract(opts)
		orig, err := l.Policies.ExportJSON()
		if err != nil {
			t.Fatal(err)
		}
		var compact, tabs bytes.Buffer
		if err := json.Compact(&compact, orig); err != nil {
			t.Fatal(err)
		}
		if err := json.Indent(&tabs, orig, "", "\t"); err != nil {
			t.Fatal(err)
		}
		forms := map[string][]byte{
			"export":   orig,
			"compact":  compact.Bytes(),
			"tabs":     tabs.Bytes(),
			"reversed": reverseKeys(t, orig),
		}
		for form, data := range forms {
			for importer, imp := range map[string]func([]byte) (*policy.ProgramPolicies, error){
				"ImportJSON": policy.ImportJSON,
				"reference":  policy.RefImportJSON,
			} {
				pp, err := imp(data)
				if err != nil {
					t.Fatalf("%s %s: %s rejects it: %v", lb.name, form, importer, err)
				}
				got, err := pp.ExportJSON()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, orig) {
					t.Errorf("%s %s: %s re-exports different bytes", lb.name, form, importer)
				}
			}
		}
	}
}

// reverseKeys rewrites a JSON value with every object's members in
// reverse order.
func reverseKeys(t *testing.T, data []byte) []byte {
	t.Helper()
	data = bytes.TrimSpace(data)
	var out bytes.Buffer
	switch data[0] {
	case '{':
		dec := json.NewDecoder(bytes.NewReader(data))
		if _, err := dec.Token(); err != nil {
			t.Fatal(err)
		}
		var members [][]byte
		for dec.More() {
			key, err := dec.Token()
			if err != nil {
				t.Fatal(err)
			}
			var val json.RawMessage
			if err := dec.Decode(&val); err != nil {
				t.Fatal(err)
			}
			k, _ := json.Marshal(key)
			members = append(members, append(append(k, ':'), reverseKeys(t, val)...))
		}
		slices.Reverse(members)
		out.WriteByte('{')
		out.Write(bytes.Join(members, []byte{','}))
		out.WriteByte('}')
	case '[':
		var elems []json.RawMessage
		if err := json.Unmarshal(data, &elems); err != nil {
			t.Fatal(err)
		}
		out.WriteByte('[')
		for i, e := range elems {
			if i > 0 {
				out.WriteByte(',')
			}
			out.Write(reverseKeys(t, e))
		}
		out.WriteByte(']')
	default:
		out.Write(data)
	}
	return out.Bytes()
}
