package experiments

import (
	"strings"

	"policyoracle/internal/baseline/mining"
	"policyoracle/internal/corpus"
	"policyoracle/internal/oracle"
)

// BaselineRow compares the oracle with the code-mining baseline at one
// mining threshold setting.
type BaselineRow struct {
	Setting        string
	MinSupport     int
	MinConfidence  float64
	FlaggedEntries int
	// SeededFound counts seeded (generated) issues the miner's flagged
	// entries cover; SeededTotal is the seeded population visible to it.
	SeededFound int
	SeededTotal int
	// SpuriousEntries counts flagged entries that manifest no seeded or
	// hand-written issue (the miner's false positives).
	SpuriousEntries int
}

// BaselineResult is the Sections 2/7 comparison: the oracle's recall is
// measured by Table 3; this table shows the miner's threshold tradeoff.
type BaselineRowSet struct {
	Rows []BaselineRow
	// OracleFound/OracleTotal restate the oracle's recall on the same
	// seeded population for side-by-side display.
	OracleFound int
	OracleTotal int
}

// Baselines runs the miner at several thresholds over every implementation
// and scores it against the seeded ground truth.
func Baselines(w *Workload) (*BaselineRowSet, error) {
	libs, err := w.LoadAll(oracle.DefaultOptions())
	if err != nil {
		return nil, err
	}

	// issueKey maps a manifesting entry to the stable identifier of the
	// seeded or hand-written (non-FP, non-broad-only) issue it exposes.
	issueKey := func(entry string) (string, bool) {
		if w.Gen != nil {
			for i := range w.Gen.Issues {
				if w.Gen.Issues[i].MatchesEntry(entry) {
					return w.Gen.Issues[i].ID, true
				}
			}
		}
		for _, is := range corpus.KnownIssues() {
			if is.BroadOnly || is.Kind == corpus.FalsePositive {
				continue
			}
			if containsSub(entry, is.MatchEntry) {
				return is.ID, true
			}
		}
		return "", false
	}

	totalSeeded := 0
	if w.Gen != nil {
		totalSeeded += len(w.Gen.Issues)
	}
	for _, is := range corpus.KnownIssues() {
		if !is.BroadOnly && is.Kind != corpus.FalsePositive {
			totalSeeded++
		}
	}

	settings := []struct {
		name string
		cfg  mining.Config
	}{
		{"strict", mining.Config{MinSupport: 5, MinConfidence: 0.95}},
		{"default", mining.DefaultConfig()},
		{"loose", mining.Config{MinSupport: 2, MinConfidence: 0.6}},
	}

	res := &BaselineRowSet{OracleTotal: totalSeeded}
	// The oracle's recall: every seeded issue detected (validated by the
	// corpus test suites); recount here against the actual reports.
	oracleFound := map[string]bool{}
	for _, pair := range corpus.Pairs() {
		rep, err := oracle.Diff(libs[pair[0]], libs[pair[1]])
		if err != nil {
			return nil, err
		}
		for _, g := range rep.Groups {
			for _, e := range g.Entries {
				if key, ok := issueKey(e); ok {
					oracleFound[key] = true
				}
			}
		}
	}
	res.OracleFound = len(oracleFound)

	for _, s := range settings {
		row := BaselineRow{
			Setting:       s.name,
			MinSupport:    s.cfg.MinSupport,
			MinConfidence: s.cfg.MinConfidence,
			SeededTotal:   totalSeeded,
		}
		flagged := map[string]bool{}
		for _, name := range corpus.Libraries() {
			m, err := mining.New(libs[name].Policies, s.cfg)
			if err != nil {
				return nil, err
			}
			for _, v := range m.FindViolations() {
				flagged[v.Entry] = true
			}
		}
		row.FlaggedEntries = len(flagged)
		seen := map[string]bool{}
		for e := range flagged {
			if key, ok := issueKey(e); ok {
				seen[key] = true
			} else {
				row.SpuriousEntries++
			}
		}
		row.SeededFound = len(seen)
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

func containsSub(s, sub string) bool {
	return sub != "" && strings.Contains(s, sub)
}
