package metamorph_test

import (
	"testing"

	"policyoracle/internal/campaign"
	"policyoracle/internal/corpus"
)

// TestIncrementalCampaignAllCorpora is the byte-identity gate for
// incremental extraction: 25 single-rewrite rounds per builtin
// corpus, each asserting invariant (e) — an extraction seeded from the
// unmutated baseline matches a from-scratch extraction of the mutant
// byte for byte, in the export wire format and in diff reports both
// ways. Mutations stay at 1 so every round is a minimal, single-file
// edit — the workload incremental extraction exists for.
func TestIncrementalCampaignAllCorpora(t *testing.T) {
	for _, lib := range corpus.Libraries() {
		runCampaign(t, lib, corpus.Sources(lib), campaign.Options{
			Seed:             4242,
			Rounds:           25,
			Mutations:        1,
			ParallelEvery:    -1, // isolate invariant (e); (c) has its own runs
			IncrementalEvery: 1,
		})
	}
}
