package repro

import (
	"bytes"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// designMaxLines is the most lines DESIGN.md may have. It describes the
// system as it is; the history of each change is in CHANGES.md.
const designMaxLines = 1200

// designDoc is DESIGN.md split into its numbered sections. titles[n]
// holds section n's heading and every subheading and bold lead-in
// inside it, normalised by designNorm.
type designDoc struct {
	lines  int
	titles map[int][]string
	text   string
}

var (
	designSection = regexp.MustCompile(`^## §(\d+) (.+)$`)
	designLead    = regexp.MustCompile(`^\*\*(.+?)\*\*`)
	designSpace   = regexp.MustCompile(`\s+`)
	// A reference is DESIGN.md followed by a section number, a quoted
	// title, or both; a line break inside it may carry a comment marker.
	// A dotted number is matched whole, so that it fails to resolve.
	designRef = regexp.MustCompile(`DESIGN\.md,?\s+(?:§(\d+(?:\.\d+)*)(?:[ ,]+"([^"]+)")?|"([^"]+)")`)
	lineJoin  = regexp.MustCompile(`\n[ \t]*(?://+|#+)?[ \t]*`)
	testName  = regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z0-9_]\w*`)
	testFunc  = regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w*)\(`)
)

func designNorm(s string) string {
	return strings.ToLower(strings.TrimSpace(designSpace.ReplaceAllString(s, " ")))
}

func readDesign(t *testing.T) designDoc {
	t.Helper()
	data, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	text := string(data)
	d := designDoc{lines: strings.Count(text, "\n"), titles: map[int][]string{}, text: text}
	sec := -1
	// A paragraph is joined into one line first, so a bold lead-in may
	// wrap.
	for _, para := range strings.Split(text, "\n\n") {
		para = strings.TrimSpace(para)
		if m := designSection.FindStringSubmatch(para); m != nil {
			sec, _ = strconv.Atoi(m[1])
			d.titles[sec] = append(d.titles[sec], designNorm(m[2]))
			continue
		}
		if sec < 0 {
			continue
		}
		if h, ok := strings.CutPrefix(para, "### "); ok {
			d.titles[sec] = append(d.titles[sec], designNorm(h))
		} else if m := designLead.FindStringSubmatch(designSpace.ReplaceAllString(para, " ")); m != nil {
			d.titles[sec] = append(d.titles[sec], designNorm(m[1]))
		}
	}
	return d
}

// resolves reports whether a reference to section sec (any section if
// sec < 0) titled title (any title if empty) names something in d. A
// title matches a heading or lead-in it begins, in any case.
func (d designDoc) resolves(sec int, title string) bool {
	title = designNorm(title)
	for n, ts := range d.titles {
		if sec >= 0 && n != sec {
			continue
		}
		if title == "" {
			return true
		}
		for _, t := range ts {
			if strings.HasPrefix(t, title) {
				return true
			}
		}
	}
	return false
}

// walkTree calls fn with the path and contents of every file of the
// module tree outside .git and .bench_build.
func walkTree(t *testing.T, fn func(path string, data []byte)) {
	t.Helper()
	err := filepath.WalkDir(".", func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() {
			if name := e.Name(); name == ".git" || name == ".bench_build" {
				return filepath.SkipDir
			}
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fn(path, data)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestDesignReferencesResolve: every reference to a DESIGN.md section
// from code, CI, scripts and the skill notes names a section that
// exists, and a quoted title names a heading or a bold lead-in of that
// section (DESIGN.md §5 "Where per-object state lives", say). DESIGN.md
// numbers sections, not subsections, so a dotted number (§5.5) names
// nothing. The Markdown files at the module root are the design document and the
// notes around it, which may quote titles past and planned; they are
// not checked.
func TestDesignReferencesResolve(t *testing.T) {
	d := readDesign(t)
	refs := 0
	walkTree(t, func(path string, data []byte) {
		if (filepath.Dir(path) == "." && strings.HasSuffix(path, ".md")) || bytes.IndexByte(data, 0) >= 0 {
			return
		}
		text := lineJoin.ReplaceAllString(string(data), " ")
		for _, m := range designRef.FindAllStringSubmatch(text, -1) {
			refs++
			sec, title := -1, m[2]+m[3]
			var err error
			if m[1] != "" {
				sec, err = strconv.Atoi(m[1])
			}
			if err != nil || !d.resolves(sec, title) {
				t.Errorf("%s: %q names no section or title of DESIGN.md", path, m[0])
			}
		}
	})
	if refs == 0 {
		t.Fatal("found no DESIGN.md reference; the pattern is broken")
	}
}

// TestDesignCitesExistingTests: every test, benchmark and fuzz target
// DESIGN.md names as the pin of an invariant is a func in the tree.
func TestDesignCitesExistingTests(t *testing.T) {
	d := readDesign(t)
	funcs := map[string]bool{}
	walkTree(t, func(path string, data []byte) {
		if strings.HasSuffix(path, ".go") {
			for _, m := range testFunc.FindAllSubmatch(data, -1) {
				funcs[string(m[1])] = true
			}
		}
	})
	seen := map[string]bool{}
	for _, name := range testName.FindAllString(d.text, -1) {
		if !funcs[name] && !seen[name] {
			t.Errorf("DESIGN.md cites %s, which is no func in the tree", name)
		}
		seen[name] = true
	}
	if len(seen) == 0 {
		t.Fatal("DESIGN.md cites no test; the pattern is broken")
	}
}

// TestDesignLength holds DESIGN.md to designMaxLines.
func TestDesignLength(t *testing.T) {
	if n := readDesign(t).lines; n > designMaxLines {
		t.Errorf("DESIGN.md has %d lines, want at most %d: describe the system, and keep its history in CHANGES.md", n, designMaxLines)
	}
}
