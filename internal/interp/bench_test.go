package interp

import (
	"testing"

	"policyoracle/internal/corpus"
	"policyoracle/internal/secmodel"
)

// BenchmarkWitnessExecution measures one interpreted entry-point run under
// a denying SecurityManager (the witness harness's inner loop).
func BenchmarkWitnessExecution(b *testing.B) {
	p := buildProg(b, corpus.HarmonySources())
	entry := entryOf(b, p, "java.net.DatagramSocket.connect(InetAddress,int)")
	accept, _ := secmodel.SecurityManager().CheckByName("checkAccept", 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in := New(p, secmodel.SecurityManager(), DefaultConfig(Deny(accept)))
		out := in.CallEntry(entry)
		if out.Err != nil {
			b.Fatal(out.Err)
		}
	}
}
