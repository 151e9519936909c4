package policyoracle_test

import (
	"fmt"
	"log"

	"policyoracle"
)

// Example demonstrates the oracle end to end on two inline
// implementations of one API, one of which misses a permission check.
func Example() {
	runtime := `
package java.lang;
public class Object { }
public class String { }
public class SecurityManager {
  public void checkWrite(String file) { }
}
`
	vendorA := `
package api;
import java.lang.*;
public class Log {
  private SecurityManager sm;
  public void append(String line) {
    sm.checkWrite(line);
    write0(line);
  }
  native void write0(String line);
}
`
	vendorB := `
package api;
import java.lang.*;
public class Log {
  public void append(String line) {
    write0(line);
  }
  native void write0(String line);
}
`
	a, err := policyoracle.LoadLibrary("vendor-a", map[string]string{"rt.mj": runtime, "log.mj": vendorA})
	if err != nil {
		log.Fatal(err)
	}
	b, err := policyoracle.LoadLibrary("vendor-b", map[string]string{"rt.mj": runtime, "log.mj": vendorB})
	if err != nil {
		log.Fatal(err)
	}
	opts := policyoracle.DefaultOptions()
	a.Extract(opts)
	b.Extract(opts)

	rep, err := policyoracle.Diff(a, b)
	if err != nil {
		log.Fatal(err)
	}
	dom, err := a.Policies.DomainModel()
	if err != nil {
		log.Fatal(err)
	}
	for _, g := range rep.Groups {
		fmt.Printf("%s: %s missing in %s at %s\n", g.Case, g.DiffChecks.StringIn(dom), g.MissingIn, g.Entries[0])
	}
	// Output:
	// missing-policy: {checkWrite} missing in vendor-b at api.Log.append(String)
}
