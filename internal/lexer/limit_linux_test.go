package lexer_test

import (
	"strings"
	"syscall"
	"testing"
	"unsafe"

	"policyoracle/internal/lang"
	"policyoracle/internal/lexer"
	"policyoracle/internal/token"
)

// TestFileOverOffsetLimit checks that a source longer than MaxFileBytes,
// whose offsets would wrap a token's int32 fields, is rejected with one
// diagnostic and scans as an empty file. The source is a read-only
// anonymous mapping the scanner never touches, so the test commits no
// memory for its 2 GiB.
func TestFileOverOffsetLimit(t *testing.T) {
	size := lexer.MaxFileBytes + 1
	m, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ, syscall.MAP_PRIVATE|syscall.MAP_ANON|syscall.MAP_NORESERVE)
	if err != nil {
		t.Skipf("cannot map %d bytes: %v", size, err)
	}
	defer syscall.Munmap(m)
	src := unsafe.String(&m[0], len(m))
	var diags lang.Diagnostics
	toks := lexer.Tokenize("huge.mj", src, &diags)
	if len(toks) != 1 || toks[0].Kind != token.EOF || toks[0].Off != 0 || toks[0].Line != 1 {
		t.Errorf("tokens = %v, want a single EOF at 1:1", toks)
	}
	all := diags.All()
	if len(all) != 1 || all[0].Pos.String() != "huge.mj:1:1" || !strings.Contains(all[0].Message, "byte limit") {
		t.Errorf("diagnostics = %v, want one at huge.mj:1:1 naming the byte limit", all)
	}
}
