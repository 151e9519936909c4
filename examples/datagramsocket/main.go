// Figure 1/2 reproduction: extract the security policies of
// DatagramSocket.connect from the bundled JDK and Harmony corpora, print
// them in the style of the paper's Figure 2, and show the oracle detecting
// Harmony's missing checkAccept.
//
// The JDK policy is unique in the whole library — checkMulticast on one
// branch, checkConnect AND checkAccept on the other — which is exactly the
// kind of rare pattern that code-mining misses and manual policies omit.
//
// Run with: go run ./examples/datagramsocket
package main

import (
	"fmt"
	"log"
	"strings"

	"policyoracle"
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

	// Check sets render in the domain the policies were extracted under.
	dom, err := libs["jdk"].Policies.DomainModel()
	if err != nil {
		log.Fatal(err)
	}

	const entry = "java.net.DatagramSocket.connect(InetAddress,int)"
	for _, name := range []string{"jdk", "harmony"} {
		ep := libs[name].Policies.Entries[entry]
		if ep == nil {
			log.Fatalf("%s: entry %s not found", name, entry)
		}
		fmt.Printf("(%s) DatagramSocket.connect security policies\n", name)
		for _, ev := range ep.SortedEvents() {
			evp := ep.Events[ev]
			fmt.Printf("  MUST check: %s\n  Event: API %s\n", evp.Must.StringIn(dom), ev)
			fmt.Printf("  MAY check: %s\n  Event: API %s\n", pathsOrFlat(evp, dom), ev)
		}
		fmt.Println()
	}

	rep, err := policyoracle.Diff(libs["jdk"], libs["harmony"])
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("--- oracle report ---")
	for _, g := range rep.Groups {
		for _, e := range g.Entries {
			if strings.Contains(e, "DatagramSocket") {
				fmt.Printf("[%s] checks %s missing in %s — manifests at %s\n",
					g.Case, g.DiffChecks.StringIn(dom), g.MissingIn, e)
			}
		}
	}
}

// pathsOrFlat prints Figure 2's set-of-alternatives form when available.
func pathsOrFlat(evp *policyoracle.EventPolicy, dom *policyoracle.Domain) string {
	if len(evp.Paths.Sets) > 1 {
		return evp.Paths.StringIn(dom)
	}
	return evp.May.StringIn(dom)
}
