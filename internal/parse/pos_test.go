package parse

import (
	"strings"
	"testing"

	"sdpopt/internal/workload"
)

func TestLineCol(t *testing.T) {
	src := "ab\ncd\n\nef"
	cases := []struct {
		off  int
		want string
	}{
		{0, "1:1"},
		{1, "1:2"},
		{2, "1:3"}, // the newline itself still belongs to line 1
		{3, "2:1"},
		{5, "2:3"},
		{6, "3:1"},
		{7, "4:1"},
		{9, "4:3"},
		{99, "4:3"}, // clamped to end of input
	}
	for _, c := range cases {
		if got := lineCol(src, c.off); got != c.want {
			t.Errorf("lineCol(%d) = %q, want %q", c.off, got, c.want)
		}
	}
}

// TestErrorPositions pins the user-visible position format: multi-line
// inputs must report the line and column of the offending token.
func TestErrorPositions(t *testing.T) {
	cat := workload.PaperSchema()
	cases := []struct {
		sql    string
		wantAt string
	}{
		{"SELECT * FROM R1 a WHERE a.c0 ? 3", "1:31"},
		{"SELECT *\nFROM R1 a\nWHERE a.nope < 3", "3:9"},
		{"SELECT *\nFROM R1 a, NoSuchTable b", "2:12"},
		{"SELECT * FROM R1 a WHERE b.c0 = a.c0", "1:26"},
	}
	for _, c := range cases {
		_, err := SQL(cat, c.sql)
		if err == nil {
			t.Errorf("%q: expected error", c.sql)
			continue
		}
		if !strings.Contains(err.Error(), c.wantAt) {
			t.Errorf("%q: error %q does not mention position %s", c.sql, err, c.wantAt)
		}
	}
}

// TestLexRejectsNonASCII: the lexer classifies ASCII bytes only and reports
// any other character whole, at the position of its first byte. Reading
// single UTF-8 bytes as Latin-1 once swallowed the first byte of "é" into
// an identifier and reported the second as '©' one column late.
func TestLexRejectsNonASCII(t *testing.T) {
	cat := workload.PaperSchema()
	cases := []struct {
		sql, want string
	}{
		{"SELECT * FROM R1 é", `unexpected character 'é' at 1:18`},
		{"SELECT *\u00a0FROM R1", `unexpected character '\u00a0' at 1:9`},
		{"SELECT * FROM R1 a, R2 日本", `unexpected character '日' at 1:24`},
		{"SELECT * FROM R1 À", `unexpected character 'À' at 1:18`},
		{"SELECT *\nFROM R1 a\nWHERE a.c0 < 3 ∧ a.c1 < 4", `unexpected character '∧' at 3:16`},
		{"SELECT * FROM R1 \xe9", `unexpected character '�' at 1:18`},
		{"SELECT * FROM R1 a WHERE a.c0 ? 3", `unexpected character '?' at 1:31`},
	}
	for _, c := range cases {
		_, err := SQL(cat, c.sql)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%q: error %v, want it to contain %s", c.sql, err, c.want)
		}
	}
	// Non-ASCII text inside a comment is never lexed.
	if _, err := SQL(cat, "SELECT * FROM R1 -- é日本\n"); err != nil {
		t.Errorf("comment with non-ASCII text: %v", err)
	}
}
