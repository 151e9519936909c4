package metamorph

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"

	"policyoracle/internal/diff"
	"policyoracle/internal/oracle"
	"policyoracle/internal/policy"
	"policyoracle/internal/secmodel"
)

// The five invariants the campaign asserts for every mutant:
//
//	(a) diff-clean      — the mutant's policies diff clean against the
//	                      original, in both directions, over an identical
//	                      entry-point set;
//	(b) must-subset-may — MUST ⊆ MAY for every entry point and event;
//	(c) parallel        — parallel extraction is byte-identical to serial;
//	(d) roundtrip       — export → import → export is byte-identical;
//	(e) incremental     — extracting the mutant incrementally from the
//	                      unmutated baseline splices and re-analyzes its
//	                      way to the same exported bytes (and the same
//	                      diff -json reports) as a clean rebuild.
//
// (a) is the paper's no-intrinsic-false-positives claim run in reverse:
// a semantics-preserving difference that produces a report is a bug in
// either the mutator catalog or the analyzer. The load step is itself an
// invariant — a mutant that fails to parse or type-check means a mutator
// emitted ill-formed MJ.

// Violation is one invariant failure, with the mutation schedule that
// produced it (replayable from the campaign seed and round).
type Violation struct {
	Round     int
	Invariant string // "load", "diff-clean", "must-subset-may", "parallel", "roundtrip", "incremental"
	Mutators  []string
	Detail    string
	// RootKeys identifies the diff groups behind a diff-clean violation
	// (sorted, deduplicated); empty for other invariants. Crash triage
	// fingerprints dedupe on it.
	RootKeys []string `json:",omitempty"`
}

func (v Violation) String() string {
	return fmt.Sprintf("round %d [%s] after %v: %s", v.Round, v.Invariant, v.Mutators, v.Detail)
}

// ValidateOracle rejects oracle options the mutator catalog is not sound
// under: broad events (ParamAccess tagging is entry-frame relative, so
// helper extraction legitimately moves it) and bounded MaxDepth (mutators
// add call frames, which shifts where a depth cutoff truncates).
func ValidateOracle(serial oracle.Options) error {
	if serial.Events != secmodel.NarrowEvents {
		return fmt.Errorf("metamorph: campaign requires narrow events (broad-mode ParamAccess events are entry-frame relative; helper extraction moves them)")
	}
	if serial.MaxDepth >= 0 {
		return fmt.Errorf("metamorph: campaign requires unlimited MaxDepth (mutators add call frames, shifting the cutoff)")
	}
	return nil
}

// MutateSources applies a seeded schedule of n mutations and returns the
// mutated bundle with the mutator names applied, the primitive the fuzz
// target, the summary-cache and ground-truth-survival tests, and
// polobench's edit-stream chain share.
func MutateSources(sources map[string]string, seed int64, n int) (map[string]string, []string, error) {
	b, err := ParseBundle(sources)
	if err != nil {
		return nil, nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	applied, _ := mutate(b, rng, n)
	return b.Sources(), applied, nil
}

// mutate applies n randomly chosen mutators to b, returning the names of
// those that changed it and the names of every draw attempted. A mutator
// whose Apply finds no candidate is marked dead and excluded from later
// draws — it stays a no-op until another mutator changes the bundle, at
// which point every dead mark is cleared (the rewrite may have created
// sites). When all mutators are simultaneously dead the round ends early.
func mutate(b *Bundle, rng *rand.Rand, n int) (applied, attempted []string) {
	muts := Mutators()
	dead := make([]bool, len(muts))
	alive := len(muts)
	for i := 0; i < n && alive > 0; i++ {
		k := rng.Intn(alive)
		idx := -1
		for j := range muts {
			if dead[j] {
				continue
			}
			if k == 0 {
				idx = j
				break
			}
			k--
		}
		m := muts[idx]
		attempted = append(attempted, m.Name)
		if m.Apply(b, rng) {
			applied = append(applied, m.Name)
			if alive < len(muts) {
				for j := range dead {
					dead[j] = false
				}
				alive = len(muts)
			}
		} else {
			dead[idx] = true
			alive--
		}
	}
	return applied, attempted
}

// MutantChecks selects which sampled invariants CheckExtracted runs on
// top of the always-on set; parallel and incremental each cost extra
// full extractions, so campaigns sample them.
type MutantChecks struct {
	Parallel    bool
	Incremental bool
}

// CheckExtracted asserts the metamorphic invariants for one extracted
// mutant against its baseline library: (a) diff-clean both directions,
// (b) MUST ⊆ MAY, (d) export roundtrip fixed point always; (c) parallel
// byte-identity and (e) incremental == clean rebuild when selected by
// chk. Round and Mutators on the returned violations are left for the
// caller to stamp. The campaign engine runs every round and every
// minimizer replay through it, so a minimized reproducer re-verifies
// under exactly the campaign's checks.
func CheckExtracted(base, lib *oracle.Library, mutated map[string]string, serial oracle.Options, chk MutantChecks) (violations []Violation) {
	fail := func(invariant, detail string) {
		violations = append(violations, Violation{Invariant: invariant, Detail: detail})
	}

	// (a) Diff clean, both directions, over an unchanged entry set.
	if nb, nm := len(base.EntryPoints()), len(lib.EntryPoints()); nb != nm {
		fail("diff-clean", fmt.Sprintf("entry-point count changed: %d -> %d", nb, nm))
	} else if match := oracle.MatchingEntries(base, lib); match != nb {
		fail("diff-clean", fmt.Sprintf("only %d of %d entry points match", match, nb))
	}
	for _, dr := range []*diff.Report{
		diff.Compare(base.Policies, lib.Policies),
		diff.Compare(lib.Policies, base.Policies),
	} {
		if len(dr.Groups) > 0 {
			violations = append(violations, Violation{
				Invariant: "diff-clean",
				Detail:    describeGroups(dr),
				RootKeys:  groupRootKeys(dr),
			})
			break
		}
	}

	// (b) MUST ⊆ MAY everywhere.
	if v := checkMustSubsetMay(lib.Policies); v != "" {
		fail("must-subset-may", v)
	}

	// (d) Export → import → export byte identity.
	exp, err := lib.Policies.ExportJSON()
	if err != nil {
		fail("roundtrip", "export: "+err.Error())
	} else if imported, err := policy.ImportJSON(exp); err != nil {
		fail("roundtrip", "import: "+err.Error())
	} else if exp2, err := imported.ExportJSON(); err != nil {
		fail("roundtrip", "re-export: "+err.Error())
	} else if !bytes.Equal(exp, exp2) {
		fail("roundtrip", fmt.Sprintf("re-export differs (%d vs %d bytes)", len(exp), len(exp2)))
	}

	// (c) Parallel extraction byte-identical to serial (sampled: two
	// extra full extractions per checked round).
	if chk.Parallel && err == nil {
		par, perr := oracle.LoadLibrary(lib.Name, mutated)
		if perr != nil {
			fail("parallel", "reload: "+perr.Error())
			return
		}
		popts := serial
		popts.Parallel = 4
		popts.Summaries = nil
		par.Extract(popts)
		pexp, perr := par.Policies.ExportJSON()
		if perr != nil {
			fail("parallel", "export: "+perr.Error())
		} else if !bytes.Equal(exp, pexp) {
			fail("parallel", fmt.Sprintf("parallel export differs from serial (%d vs %d bytes)", len(pexp), len(exp)))
		}
	}

	// (e) Incremental extraction seeded from the unmutated baseline is
	// byte-identical to a clean rebuild of the mutant (sampled: one clean
	// rebuild plus one — mostly spliced — incremental extraction). Both
	// run under the baseline's name so the exports embed identical
	// metadata, isolating the splicing itself.
	if chk.Incremental {
		checkIncremental(base.Name, mutated, base, serial, fail)
	}
	return violations
}

// groupRootKeys collects the distinct root keys of a spurious diff
// report, sorted; crash-triage fingerprints and coverage keys both
// consume them.
func groupRootKeys(dr *diff.Report) []string {
	seen := map[string]bool{}
	var keys []string
	for _, g := range dr.Groups {
		if !seen[g.RootKey] {
			seen[g.RootKey] = true
			keys = append(keys, g.RootKey)
		}
	}
	sort.Strings(keys)
	return keys
}

// checkIncremental asserts invariant (e) for one mutated bundle: the
// incremental extraction's stats must cover every entry, its exported
// policies must match a clean rebuild byte for byte, and the diff
// reports both produce against the baseline must encode identically.
func checkIncremental(name string, mutated map[string]string, base *oracle.Library, serial oracle.Options, fail func(invariant, detail string)) {
	clean, err := oracle.LoadLibrary(name, mutated)
	if err != nil {
		fail("incremental", "reload: "+err.Error())
		return
	}
	clean.Extract(serial)
	inc, st, err := oracle.ExtractIncremental(base, mutated, serial)
	if err != nil {
		fail("incremental", "incremental extract: "+err.Error())
		return
	}
	if st.Full {
		fail("incremental", "fell back to a full extraction (option key mismatch)")
	}
	if st.Reused+st.Reanalyzed != st.Entries {
		fail("incremental", fmt.Sprintf("stats do not cover the entry set: %+v", *st))
	}
	cexp, cerr := clean.Policies.ExportJSON()
	iexp, ierr := inc.Policies.ExportJSON()
	if cerr != nil || ierr != nil {
		fail("incremental", fmt.Sprintf("export: clean=%v incremental=%v", cerr, ierr))
		return
	}
	if !bytes.Equal(cexp, iexp) {
		fail("incremental", fmt.Sprintf("incremental export differs from clean rebuild (%d vs %d bytes, %d/%d reused)",
			len(iexp), len(cexp), st.Reused, st.Entries))
		return
	}
	for _, dir := range []struct {
		label    string
		cleanRep *diff.Report
		incRep   *diff.Report
	}{
		{"mutant vs baseline", diff.Compare(clean.Policies, base.Policies), diff.Compare(inc.Policies, base.Policies)},
		{"baseline vs mutant", diff.Compare(base.Policies, clean.Policies), diff.Compare(base.Policies, inc.Policies)},
	} {
		cj, cerr := json.Marshal(dir.cleanRep.ToJSON())
		ij, ierr := json.Marshal(dir.incRep.ToJSON())
		if cerr != nil || ierr != nil {
			fail("incremental", fmt.Sprintf("diff encode (%s): clean=%v incremental=%v", dir.label, cerr, ierr))
			return
		}
		if !bytes.Equal(cj, ij) {
			fail("incremental", fmt.Sprintf("diff report (%s) differs between clean and incremental", dir.label))
			return
		}
	}
}

// checkMustSubsetMay returns a description of the first MUST ⊄ MAY
// violation in pp, or "".
func checkMustSubsetMay(pp *policy.ProgramPolicies) string {
	for _, sig := range pp.SortedEntries() {
		ep := pp.Entries[sig]
		for _, ev := range ep.SortedEvents() {
			evp := ep.Events[ev]
			if extra := evp.Must.Minus(evp.May); !extra.IsEmpty() {
				return fmt.Sprintf("%s %v: MUST has %s beyond MAY", sig, ev, extra)
			}
		}
	}
	return ""
}

// describeGroups renders a spurious diff report compactly for a
// violation detail.
func describeGroups(dr *diff.Report) string {
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "%d spurious group(s) between %s and %s:", len(dr.Groups), dr.LibA, dr.LibB)
	for i, g := range dr.Groups {
		if i == 3 {
			fmt.Fprintf(&buf, " ... (%d more)", len(dr.Groups)-i)
			break
		}
		entry := ""
		if len(g.Entries) > 0 {
			entry = " at " + g.Entries[0]
		}
		fmt.Fprintf(&buf, " [%s %s checks=%s%s]", g.Case, g.Category, g.DiffChecks, entry)
	}
	return buf.String()
}
