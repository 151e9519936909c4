package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"

	"policyoracle/internal/corpus/gen"
	"policyoracle/internal/diff"
)

// verifyVerdict checks a diff report against the generator's seeded
// labels: every seeded issue of the pair is reported, nothing unseeded
// is, and the seeded false negatives stay silent. wire must be the
// report's canonical encoding. It returns how many seeded issues were
// discounted as generator label defects (see labelDefect).
func verifyVerdict(corp *gen.Corpus, pair [2]string, rep *diff.Report, wire []byte) (int, error) {
	if rep.LibA != pair[0] || rep.LibB != pair[1] {
		return 0, fmt.Errorf("report compares %s/%s, want %s/%s", rep.LibA, rep.LibB, pair[0], pair[1])
	}
	problems := corp.VerifyReport(pair, rep)
	discounted := 0
	for i := range corp.Issues {
		is := &corp.Issues[i]
		if (is.Responsible != pair[0] && is.Responsible != pair[1]) || !labelDefect(corp, is) {
			continue
		}
		missed := fmt.Sprintf("%v: seeded issue %s (%s in %s, check %s) not detected",
			pair, is.ID, is.Kind, is.Responsible, is.Check)
		for j, p := range problems {
			if p == missed {
				problems = append(problems[:j], problems[j+1:]...)
				discounted++
				break
			}
		}
	}
	if len(problems) > 0 {
		return discounted, errors.New(strings.Join(problems, "; "))
	}
	var decoded diff.JSONReport
	if err := json.Unmarshal(wire, &decoded); err != nil {
		return discounted, fmt.Errorf("verdict wire bytes: %w", err)
	}
	if len(decoded.Groups) != len(rep.Groups) {
		return discounted, fmt.Errorf("verdict wire has %d groups, report has %d", len(decoded.Groups), len(rep.Groups))
	}
	return discounted, nil
}

// labelDefect reports whether a seeded extra-check issue planted no
// extra check at all. The generator draws the "extra" check by offset
// from the method's first check, and for some seeds that draw is a check
// the method already makes; the deviant library then repeats a check
// call inside one method of the entry's chain, its policy is unchanged,
// and no verdict can report the issue. The test reads the responsible
// library's source, never the oracle's output, so an oracle that misses
// a real extra check still fails the check.
func labelDefect(corp *gen.Corpus, is *gen.SeededIssue) bool {
	if is.Kind != gen.ExtraCheck {
		return false
	}
	for _, src := range corp.Sources[is.Responsible] {
		if repeatsCheck(src, is.EntryClass, is.EntryMethod) {
			return true
		}
	}
	return false
}

// repeatsCheck reports whether a method of class whose name is method or
// one of its helpers (method followed by a non-digit) contains the same
// check call statement twice.
func repeatsCheck(src, class, method string) bool {
	inClass, inMethod := false, false
	seen := map[string]bool{}
	for _, line := range strings.Split(src, "\n") {
		if !inClass {
			inClass = strings.Contains(line, "class "+class+" ")
			continue
		}
		if strings.HasPrefix(line, "}") {
			return false
		}
		t := strings.TrimSpace(line)
		if strings.HasPrefix(line, "  ") && !strings.HasPrefix(line, "   ") && strings.HasSuffix(t, "{") {
			// A method header: "<modifiers> <type> <name>(<params>) {".
			open := strings.Index(t, "(")
			name := ""
			if open > 0 {
				fields := strings.Fields(t[:open])
				name = fields[len(fields)-1]
			}
			rest := strings.TrimPrefix(name, method)
			inMethod = rest != name && (rest == "" || rest[0] < '0' || rest[0] > '9')
			seen = map[string]bool{}
			continue
		}
		if inMethod && strings.Contains(t, "securityManager.check") {
			if seen[t] {
				return true
			}
			seen[t] = true
		}
	}
	return false
}

// noteDiscounted prints, before the result, how many seeded issues the
// checks discounted as generator label defects, so none is silent.
func noteDiscounted(n int) {
	if n > 0 {
		fmt.Printf("note gen_label_defects=%d: seeded extra-check issues whose deviant method repeats a check it already makes\n", n)
	}
}
