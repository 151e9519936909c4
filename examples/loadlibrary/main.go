// Figure 5 and Section 6.2 reproduction: the JDK's Runtime.loadLibrary
// misses the checkRead that Classpath performs before loading a native
// library (an interprocedural bug: the checks and the native load live in
// different methods), and the JDK's privileged-block property check is a
// semantic no-op that the analysis correctly ignores.
//
// Run with: go run ./examples/loadlibrary
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
	for _, name := range []string{"jdk", "classpath"} {
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

	const entry = "java.lang.Runtime.loadLibrary(String)"
	fmt.Println("Runtime.loadLibrary policies (API-return event):")
	for _, name := range []string{"jdk", "classpath"} {
		ep := libs[name].Policies.Entries[entry]
		if ep == nil {
			log.Fatalf("%s: %s not found", name, entry)
		}
		ret := ep.Events[policyoracle.Event{Kind: policyoracle.APIReturn}]
		fmt.Printf("  %-10s MUST %s\n", name, ret.Must.StringIn(dom))
	}
	fmt.Println()

	fmt.Println("PropsAccess.getProperty policies (the JDK check hides inside doPrivileged):")
	for _, name := range []string{"jdk", "classpath"} {
		ep := libs[name].Policies.Entries["java.lang.PropsAccess.getProperty(String)"]
		ret := ep.Events[policyoracle.Event{Kind: policyoracle.APIReturn}]
		fmt.Printf("  %-10s MUST %s\n", name, ret.Must.StringIn(dom))
	}
	fmt.Println()

	rep, err := policyoracle.Diff(libs["jdk"], libs["classpath"])
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("--- oracle report (loadLibrary and getProperty) ---")
	for _, g := range rep.Groups {
		for _, e := range g.Entries {
			if strings.Contains(e, "loadLibrary") || strings.Contains(e, "getProperty") {
				fmt.Printf("[%s/%s] checks %s missing in %s — %s\n",
					g.Case, g.Category, g.DiffChecks.StringIn(dom), g.MissingIn, e)
			}
		}
	}
}
