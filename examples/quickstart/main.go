// Quickstart: difference two tiny implementations of the same API, one of
// which forgets a permission check, and print the oracle's report.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"policyoracle"
)

// Both implementations expose FileApi.delete(String). The "vendor-b"
// implementation forgets the checkDelete permission check, so untrusted
// code could delete files.
const runtime = `
package java.lang;
public class Object { }
public class String { }
public class SecurityManager {
  public void checkDelete(String file) { }
}
`

const vendorA = `
package api.io;
import java.lang.*;
public class FileApi {
  private SecurityManager securityManager;
  public void delete(String path) {
    securityManager.checkDelete(path);
    unlink0(path);
  }
  native void unlink0(String path);
}
`

const vendorB = `
package api.io;
import java.lang.*;
public class FileApi {
  private SecurityManager securityManager;
  public void delete(String path) {
    unlink0(path);
  }
  native void unlink0(String path);
}
`

func main() {
	a, err := policyoracle.LoadLibrary("vendor-a", map[string]string{
		"runtime.mj": runtime, "fileapi.mj": vendorA,
	})
	if err != nil {
		log.Fatal(err)
	}
	b, err := policyoracle.LoadLibrary("vendor-b", map[string]string{
		"runtime.mj": runtime, "fileapi.mj": vendorB,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Compare extracts both libraries' policies and differences them in
	// one call.
	rep, err := policyoracle.Compare(a, b, policyoracle.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s vs %s: %d matching entry points, %d distinct difference(s)\n\n",
		rep.LibA, rep.LibB, rep.MatchingEntries, len(rep.Groups))
	// Check sets render in the domain the policies were extracted under.
	dom, err := a.Policies.DomainModel()
	if err != nil {
		log.Fatal(err)
	}
	for _, g := range rep.Groups {
		fmt.Printf("difference [%s]: checks %s missing in %s\n", g.Case, g.DiffChecks.StringIn(dom), g.MissingIn)
		for _, e := range g.Entries {
			fmt.Printf("  manifests at %s\n", e)
		}
		d := g.Diffs[0]
		fmt.Printf("  %-10s MUST %s MAY %s (event %s)\n", d.A.Library, d.A.Must.StringIn(dom), d.A.May.StringIn(dom), d.Event)
		fmt.Printf("  %-10s MUST %s MAY %s\n", d.B.Library, d.B.Must.StringIn(dom), d.B.May.StringIn(dom))
	}
}
