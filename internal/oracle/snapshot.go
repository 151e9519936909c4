package oracle

import (
	"encoding/json"
	"fmt"
	"strings"

	"policyoracle/internal/jsonwrite"
	"policyoracle/internal/policy"
	"policyoracle/internal/secmodel"
)

// A snapshot is the persisted form of one extraction that a later
// ExtractIncremental can seed from: the policy blob in the polora-export
// wire format plus the incremental state (method hashes, entry
// dependency sets, option key). `polora extract` writes snapshots to
// disk; the store persists the same structure as a sidecar next to each
// policy blob, with Policies omitted because the blob already lives
// under policies/.

// SnapshotVersion tags the snapshot scheme; DecodeSnapshot rejects any
// other version rather than guessing at field semantics.
const SnapshotVersion = 1

// Snapshot is one extraction in seedable form.
type Snapshot struct {
	Version int    `json:"version"`
	Library string `json:"library"`
	// Options is the canonical semantic option string of the extraction.
	// The wire format carries no display data (paths, guards), so a
	// snapshot always represents a paths=false guards=false extraction
	// regardless of what the producing run collected in memory.
	Options      string              `json:"options"`
	MethodHashes map[string]string   `json:"methodHashes"`
	EntryDeps    map[string][]string `json:"entryDeps"`
	Policies     json.RawMessage     `json:"policies,omitempty"`
}

// Snapshot renders the library's last extraction as a Snapshot.
func (l *Library) Snapshot() (*Snapshot, error) {
	if l.Policies == nil {
		return nil, fmt.Errorf("%w: %s", ErrNotExtracted, l.Name)
	}
	blob, err := l.Policies.ExportJSON()
	if err != nil {
		return nil, err
	}
	// ExtractedOpts is "<canonical> paths=<t> guards=<t>" (see
	// extractKey); strip the display flags, which the wire blob drops.
	canonical, _, ok := strings.Cut(l.ExtractedOpts, " paths=")
	if !ok {
		return nil, fmt.Errorf("oracle: library %s has no extraction option key (extracted by an older build?)", l.Name)
	}
	return &Snapshot{
		Version:      SnapshotVersion,
		Library:      l.Name,
		Options:      canonical,
		MethodHashes: l.hashes(),
		EntryDeps:    l.EntryDeps,
		Policies:     blob,
	}, nil
}

// ExportSnapshot is Snapshot, encoded.
func (l *Library) ExportSnapshot() ([]byte, error) {
	snap, err := l.Snapshot()
	if err != nil {
		return nil, err
	}
	return snap.Encode()
}

// Encode renders the snapshot in its stable on-disk form: the bytes
// json.MarshalIndent(s, "", "  ") renders, written without reflection.
func (s *Snapshot) Encode() ([]byte, error) {
	var w jsonwrite.Indent
	w.BeginObject()
	w.Key("version")
	w.Int(int64(s.Version))
	w.Key("library")
	w.String(s.Library)
	w.Key("options")
	w.String(s.Options)
	w.Key("methodHashes")
	w.StringMap(s.MethodHashes)
	w.Key("entryDeps")
	w.StringsMap(s.EntryDeps)
	if len(s.Policies) > 0 {
		w.Key("policies")
		if err := w.Raw(s.Policies); err != nil {
			return nil, fmt.Errorf("oracle: encoding snapshot policies: %w", err)
		}
	}
	w.EndObject()
	return w.Bytes(), nil
}

// DecodeSnapshot parses and validates a snapshot produced by Encode.
func DecodeSnapshot(data []byte) (*Snapshot, error) {
	var s Snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("oracle: decoding snapshot: %w", err)
	}
	if s.Version != SnapshotVersion {
		return nil, fmt.Errorf("oracle: unsupported snapshot version %d (want %d)", s.Version, SnapshotVersion)
	}
	if s.Library == "" {
		return nil, fmt.Errorf("oracle: snapshot has no library name")
	}
	return &s, nil
}

// ToLibrary reconstructs the previous-extraction view of a snapshot: a
// library carrying policies and incremental state but no program (an
// incremental extraction reloads the program from the new sources).
// s.Policies must be present — the store splices the separately-persisted
// blob back in before calling this.
func (s *Snapshot) ToLibrary() (*Library, error) {
	if len(s.Policies) == 0 {
		return nil, fmt.Errorf("oracle: snapshot for %s carries no policy blob", s.Library)
	}
	pp, err := policy.ImportJSON(s.Policies)
	if err != nil {
		return nil, fmt.Errorf("oracle: snapshot policies for %s: %w", s.Library, err)
	}
	if pp.Library != s.Library {
		return nil, fmt.Errorf("oracle: snapshot library %q does not match its policy blob %q", s.Library, pp.Library)
	}
	d, err := pp.DomainModel()
	if err != nil {
		return nil, fmt.Errorf("oracle: snapshot policies for %s: %w", s.Library, err)
	}
	// Imported policies went through the wire format, which drops display
	// data, so the restored key pins paths/guards off.
	return seedView(s.Library, pp, s.EntryDeps, s.Options+" paths=false guards=false", d, s.MethodHashes), nil
}

// SeedView returns the library's last extraction without its program:
// the same fields Snapshot.ToLibrary restores from disk (policies, entry
// dependency sets, method hashes under the extraction's domain and the
// option key), taken from memory. An incremental extraction seeds from
// it as from a restored snapshot. Nil if the library was never
// extracted.
func (l *Library) SeedView() *Library {
	if l.Policies == nil {
		return nil
	}
	return seedView(l.Name, l.Policies, l.EntryDeps, l.ExtractedOpts, l.domain, l.hashes())
}

// seedView builds a program-less library that carries one extraction's
// incremental state; its hash cache holds hashes under domain d.
func seedView(name string, pp *policy.ProgramPolicies, deps map[string][]string, key string, d *secmodel.Domain, hashes map[string]string) *Library {
	return &Library{
		Name:          name,
		Policies:      pp,
		EntryDeps:     deps,
		ExtractedOpts: key,
		domain:        d,
		hashCache:     map[string]map[string]string{d.ID(): hashes},
	}
}

// ImportSnapshot decodes a snapshot and reconstructs the library view an
// incremental extraction seeds from.
func ImportSnapshot(data []byte) (*Library, error) {
	s, err := DecodeSnapshot(data)
	if err != nil {
		return nil, err
	}
	return s.ToLibrary()
}
