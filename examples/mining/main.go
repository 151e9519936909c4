// Oracle vs code-mining (Section 2): Harmony's DatagramSocket.connect
// misses a checkAccept that occurs in a pattern appearing exactly once in
// the library. A frequent-pattern miner cannot see it — the pattern is
// below any support threshold — while cross-implementation differencing
// reports it immediately.
//
// Run with: go run ./examples/mining
package main

import (
	"fmt"
	"log"
	"strings"

	"policyoracle"
	"policyoracle/internal/baseline/mining"
)

func main() {
	opts := policyoracle.DefaultOptions()
	libs := map[string]*policyoracle.Library{}
	for _, name := range []string{"jdk", "harmony"} {
		lib, err := policyoracle.LoadLibrary(name, policyoracle.BuiltinCorpus(name))
		if err != nil {
			log.Fatal(err)
		}
		lib.Extract(opts)
		libs[name] = lib
	}

	fmt.Println("=== code-mining baseline on harmony alone ===")
	for _, cfg := range []mining.Config{
		{MinSupport: 5, MinConfidence: 0.95},
		{MinSupport: 3, MinConfidence: 0.9},
		{MinSupport: 2, MinConfidence: 0.6},
	} {
		m, err := mining.New(libs["harmony"].Policies, cfg)
		if err != nil {
			log.Fatal(err)
		}
		vs := m.FindViolations()
		fmt.Printf("support>=%d confidence>=%.2f: %d violation(s)\n",
			cfg.MinSupport, cfg.MinConfidence, len(vs))
		foundBug := false
		for _, v := range vs {
			fmt.Printf("  %s\n", v)
			if strings.Contains(v.Entry, "DatagramSocket.connect") &&
				strings.Contains(v.Rule.String(), "checkAccept") {
				foundBug = true
			}
		}
		if !foundBug {
			fmt.Println("  -> the rare-pattern checkAccept bug is NOT among them")
		}
	}

	fmt.Println("\n=== security policy oracle (jdk vs harmony) ===")
	rep, err := policyoracle.Diff(libs["jdk"], libs["harmony"])
	if err != nil {
		log.Fatal(err)
	}
	dom, err := libs["jdk"].Policies.DomainModel()
	if err != nil {
		log.Fatal(err)
	}
	for _, g := range rep.Groups {
		if checks := g.DiffChecks.StringIn(dom); strings.Contains(checks, "checkAccept") {
			fmt.Printf("[%s] checks %s missing in %s — manifests at %s\n",
				g.Case, checks, g.MissingIn, strings.Join(g.Entries, ", "))
		}
	}
}
