package apps

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

func TestScribeCommandParsing(t *testing.T) {
	cases := []struct{ in, cmd, arg string }{
		{"@Chapter(Intro)", "Chapter", "Intro"},
		{"@i[emphasis]", "i", "emphasis"},
		{"@End(itemize)", "End", "itemize"},
		{"@newpage", "newpage", ""},
		{"@Include(ch1.mss)", "Include", "ch1.mss"},
	}
	for _, c := range cases {
		cmd, arg := scribeCommand(c.in)
		if cmd != c.cmd || arg != c.arg {
			t.Errorf("scribeCommand(%q) = %q,%q want %q,%q", c.in, cmd, arg, c.cmd, c.arg)
		}
	}
}

func TestScribeFaces(t *testing.T) {
	got := scribeFaces("plain @i[italic words] and @b[bold] end")
	if got != "plain _italic words_ and BOLD end" {
		t.Fatalf("faces = %q", got)
	}
	// Unterminated face degrades gracefully.
	if out := scribeFaces("@i[oops"); !strings.Contains(out, "oops") {
		t.Fatalf("unterminated = %q", out)
	}
}

func TestJustifyLineExactWidth(t *testing.T) {
	f := func(seed uint16) bool {
		// Build 2-6 words of 1-8 letters.
		n := int(seed%5) + 2
		var words []string
		total := 0
		for i := 0; i < n; i++ {
			w := strings.Repeat("w", int(seed>>uint(i))%8+1)
			words = append(words, w)
			total += len(w)
		}
		width := total + n - 1 + int(seed%10) // at least one space per gap
		line := justifyLine(words, width)
		return len(line) == width &&
			strings.Join(strings.Fields(line), " ") == strings.Join(words, " ")
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestScribeFillRespectsWidth(t *testing.T) {
	d := &scribeDoc{width: 40, pageLen: 1000}
	text := strings.Repeat("word another slightly longer words ", 20)
	d.fill(text, "    ", "", true)
	for i, line := range d.out {
		if len(line) > 40 {
			t.Fatalf("line %d over width: %q (%d)", i, line, len(line))
		}
	}
	// Justified interior lines are exactly the width.
	full := 0
	for _, line := range d.out[:len(d.out)-1] {
		if len(line) == 40 {
			full++
		}
	}
	if full == 0 {
		t.Fatal("no justified lines")
	}
}

func TestScribeOverlongWord(t *testing.T) {
	d := &scribeDoc{width: 10, pageLen: 1000}
	d.fill("supercalifragilistic ok", "", "", true)
	if len(d.out) < 2 {
		t.Fatalf("overlong word handling: %q", d.out)
	}
}

func TestScribePagination(t *testing.T) {
	d := &scribeDoc{width: 72, pageLen: 5}
	d.page = 1
	for i := 0; i < 12; i++ {
		d.emit("line")
	}
	d.pageBreak()
	// 12 lines at 5 per page = 3 pages, each closed with footer + formfeed.
	if d.page != 4 {
		t.Fatalf("page = %d", d.page)
	}
	ff := 0
	for _, l := range d.out {
		if l == "\f" {
			ff++
		}
	}
	if ff != 3 {
		t.Fatalf("formfeeds = %d", ff)
	}
}

func TestGenDissertationDeterministic(t *testing.T) {
	k1, err := NewWorld()
	if err != nil {
		t.Fatal(err)
	}
	k2, err := NewWorld()
	if err != nil {
		t.Fatal(err)
	}
	p1, err := GenDissertation(k1, "/doc", 2, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	p2, _ := GenDissertation(k2, "/doc", 2, 2, 2)
	d1, _ := k1.ReadFile(p1)
	d2, _ := k2.ReadFile(p2)
	c1, _ := k1.ReadFile("/doc/chapter01.mss")
	c2, _ := k2.ReadFile("/doc/chapter01.mss")
	if string(d1) != string(d2) || string(c1) != string(c2) {
		t.Fatal("workload generation not deterministic")
	}
}

// TestGenDissertationGolden pins the generated manuscript byte for byte
// at the size the benchmark fixtures use (8 chapters × 4 sections × 6
// paragraphs): a digest over every file GenDissertation writes, in
// order. Expected outputs elsewhere (scribe pages, wc counts in the
// perfbench reference) derive from these bytes, so a generator rewrite
// must reproduce them exactly.
func TestGenDissertationGolden(t *testing.T) {
	k, err := NewWorld()
	if err != nil {
		t.Fatal(err)
	}
	const chapters = 8
	main, err := GenDissertation(k, "/doc", chapters, 4, 6)
	if err != nil {
		t.Fatal(err)
	}
	var files []string
	for ch := 1; ch <= chapters; ch++ {
		files = append(files, fmt.Sprintf("/doc/chapter%02d.mss", ch))
	}
	h := sha256.New()
	for _, f := range append(files, main) {
		data, err := k.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "%s\x00%d\x00", f, len(data))
		h.Write(data)
	}
	const golden = "b775a1ca932b197cfbcde86f3c5be56484f7832407dc61aa61d3a48715b1a4b8"
	if got := hex.EncodeToString(h.Sum(nil)); got != golden {
		t.Fatalf("/doc tree digest %s, want %s", got, golden)
	}
}

func TestExpectedProgOutputMatchesGenerator(t *testing.T) {
	// The oracle in ExpectedProgOutput matches what the generated MiniC
	// actually computes, via the in-process pipeline.
	k, err := NewWorld()
	if err != nil {
		t.Fatal(err)
	}
	if err := GenMakeTree(k, "/src", 1); err != nil {
		t.Fatal(err)
	}
	mainSrc, _ := k.ReadFile("/src/prog1_main.c")
	subSrc, _ := k.ReadFile("/src/prog1_sub.c")
	defs, _ := k.ReadFile("/src/defs.h")
	// Poor man's cpp: replace the include and macros.
	expand := func(src string) string {
		s := strings.ReplaceAll(string(src), `#include "defs.h"`, "")
		s = strings.ReplaceAll(s, "LIMIT", "10")
		s = strings.ReplaceAll(s, "STEP", "1")
		return stripComments(s)
	}
	_ = defs
	asm1, err := CompileMiniC(expand(string(mainSrc)))
	if err != nil {
		t.Fatal(err)
	}
	asm2, err := CompileMiniC(expand(string(subSrc)))
	if err != nil {
		t.Fatal(err)
	}
	f1, _ := Assemble(asm1)
	f2, _ := Assemble(asm2)
	var out strings.Builder
	if _, err := RunVM(append(f1, f2...), &out); err != nil {
		t.Fatal(err)
	}
	if out.String() != ExpectedProgOutput(1) {
		t.Fatalf("oracle mismatch: %q vs %q", out.String(), ExpectedProgOutput(1))
	}
}
