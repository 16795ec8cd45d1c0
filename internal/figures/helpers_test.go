package figures

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/datagen"
)

func TestAsciiMapDimensions(t *testing.T) {
	var buf bytes.Buffer
	vals := make([]float64, 12)
	for i := range vals {
		vals[i] = float64(i)
	}
	asciiMap(&buf, vals, 4, 3, 0, 11)
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("%d lines, want 3", len(lines))
	}
	for _, l := range lines {
		if len(l) != 4 {
			t.Fatalf("line %q has width %d", l, len(l))
		}
	}
	// Row 0 is printed last (bottom of the map); its first cell is the
	// minimum value → lightest shade (space).
	if lines[2][0] != ' ' {
		t.Errorf("minimum cell rendered as %q", lines[2][0])
	}
	// Maximum value (top right) gets the darkest shade.
	if lines[0][3] != '@' {
		t.Errorf("maximum cell rendered as %q", lines[0][3])
	}
}

func TestAsciiMapClampsOutOfRange(t *testing.T) {
	var buf bytes.Buffer
	asciiMap(&buf, []float64{-10, 100}, 2, 1, 0, 1)
	line := strings.TrimRight(buf.String(), "\n")
	if line[0] != ' ' || line[1] != '@' {
		t.Errorf("clamping failed: %q", line)
	}
}

func TestAsciiMapDegenerateRange(t *testing.T) {
	// lo == hi must not divide by zero (minMax widens, but direct calls may
	// pass equal bounds).
	var buf bytes.Buffer
	asciiMap(&buf, []float64{1, 1}, 2, 1, 1, 1)
	if !strings.Contains(" .:-=+*#%@", string(buf.String()[0])) {
		t.Errorf("unexpected output %q", buf.String())
	}
}

func TestMinMax(t *testing.T) {
	lo, hi := minMax([]float64{3, -1, 7, 2})
	if lo != -1 || hi != 7 {
		t.Errorf("minMax = (%v,%v)", lo, hi)
	}
	lo, hi = minMax([]float64{5, 5})
	if lo != 5 || hi <= lo {
		t.Errorf("degenerate minMax = (%v,%v): hi must exceed lo", lo, hi)
	}
}

func TestBoolMap(t *testing.T) {
	m := boolMap([]int{0, 3}, 5)
	want := []float64{1, 0, 0, 1, 0}
	for i := range want {
		if m[i] != want[i] {
			t.Fatalf("boolMap = %v", m)
		}
	}
}

func TestRankBucket(t *testing.T) {
	cases := map[int]int{1: 0, 5: 0, 6: 1, 10: 1, 11: 2, 20: 2, 21: 3, 50: 3, 51: 4, 100: 4, 101: 5, 980: 5}
	for r, want := range cases {
		if got := rankBucket(r); got != want {
			t.Errorf("rankBucket(%d) = %d, want %d", r, got, want)
		}
	}
}

func TestSortInts(t *testing.T) {
	v := []int{512, 16, 128, 64}
	sortInts(v)
	for i := 1; i < len(v); i++ {
		if v[i] < v[i-1] {
			t.Fatalf("not sorted: %v", v)
		}
	}
}

func TestLevelsMatchPaper(t *testing.T) {
	if len(Levels) != 3 {
		t.Fatal("paper has three correlation levels")
	}
	want := map[string]float64{"weak": 0.033, "medium": 0.1, "strong": 0.234}
	for _, lv := range Levels {
		if want[lv.Name] != lv.Range {
			t.Errorf("level %s has range %v", lv.Name, lv.Range)
		}
	}
}

// Fig. 1 builds its fields through datagen by level name and Fig. 5
// through Levels by range: the two tables must name the same fields.
func TestLevelsMatchDatagen(t *testing.T) {
	if len(Levels) != len(datagen.PaperSyntheticRanges) {
		t.Fatalf("%d levels, datagen has %d", len(Levels), len(datagen.PaperSyntheticRanges))
	}
	for _, lv := range Levels {
		if rg, ok := datagen.PaperSyntheticRanges[lv.Name]; !ok || rg != lv.Range {
			t.Errorf("level %s: range %v here, %v (present %v) in datagen", lv.Name, lv.Range, rg, ok)
		}
	}
}
