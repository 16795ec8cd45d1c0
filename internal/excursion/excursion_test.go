package excursion

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/cov"
	"repro/internal/engine"
	"repro/internal/geo"
	"repro/internal/linalg"
	"repro/internal/mvn"
	"repro/internal/stats"
	"repro/internal/taskrt"
)

// problem is an exponential field on a k×k grid with a linearly varying mean
// surface: the covariance, its location-ordered correlation Cholesky factor
// (the MC validation's and the reference's) and the marginals.
type problem struct {
	g        *geo.Geom
	sigma    *linalg.Matrix
	lCorr    *linalg.Matrix
	mean, sd []float64
}

func newProblem(t *testing.T, k int, rang float64) *problem {
	t.Helper()
	g := geo.RegularGrid(k, k)
	sigma := cov.Matrix(g, &cov.Exponential{Sigma2: 1.3, Range: rang})
	corr, sd := CorrelationFromCovariance(sigma)
	lCorr, err := linalg.Cholesky(corr)
	if err != nil {
		t.Fatal(err)
	}
	mean := make([]float64, g.Len())
	for i, p := range g.Pts {
		mean[i] = 1.5 - 2.2*p.X - 0.8*p.Y // high in the west, low in the east
	}
	return &problem{g: g, sigma: sigma, lCorr: lCorr, mean: mean, sd: sd}
}

// denseFactor factors m with the dense tiled Cholesky, m read in place as a
// session reads an explicit Σ.
func denseFactor(t *testing.T, rt *taskrt.Runtime, m *linalg.Matrix, ts int) *mvn.Factor {
	t.Helper()
	g := engine.NewGrid(m.Rows, ts)
	fill := func(dst []float64, row0, j int) { copy(dst, m.Col(j)[row0:]) }
	if err := engine.PotrfStream(rt, g, engine.Policy{Band: math.MaxInt}.EntryAssembler(g, fill, true)); err != nil {
		t.Fatal(err)
	}
	return mvn.NewFactor(g)
}

// detect runs the one-sweep plan on the problem: order, gather, factor,
// integrate (inline for a nil rt).
func (p *problem) detect(t *testing.T, rt *taskrt.Runtime, u float64, opts mvn.Options) *Computer {
	t.Helper()
	plan, err := NewPlan(p.mean, p.sd, u)
	if err != nil {
		t.Fatal(err)
	}
	frt := rt
	if frt == nil {
		frt = taskrt.New(1)
		defer frt.Shutdown()
	}
	n := len(p.mean)
	c, err := plan.Integrate(rt, denseFactor(t, frt, plan.Correlation(p.sigma.Col, p.sd), max(4, n/4)), opts)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// setup is the common case: a positive-excursion Computer on a 4-worker
// runtime the caller shuts down.
func setup(t *testing.T, k int, rang, u float64, opts mvn.Options) (*Computer, *problem, *taskrt.Runtime) {
	t.Helper()
	p := newProblem(t, k, rang)
	rt := taskrt.New(4)
	return p.detect(t, rt, u, opts), p, rt
}

func TestMarginals(t *testing.T) {
	mean := []float64{0, 1, -1}
	sd := []float64{1, 2, 0.5}
	u := 0.5
	p := Marginals(mean, sd, u)
	for i := range mean {
		want := 1 - stats.Phi((u-mean[i])/sd[i])
		if math.Abs(p[i]-want) > 1e-15 {
			t.Errorf("pM[%d] = %v, want %v", i, p[i], want)
		}
	}
}

func TestOrderDescendingStable(t *testing.T) {
	p := []float64{0.2, 0.9, 0.5, 0.9, 0.1}
	ord := Order(p)
	want := []int{1, 3, 2, 0, 4}
	for i := range want {
		if ord[i] != want[i] {
			t.Fatalf("Order = %v, want %v", ord, want)
		}
	}
}

func TestCorrelationFromCovariance(t *testing.T) {
	g := geo.RegularGrid(4, 4)
	sigma := cov.Matrix(g, &cov.Exponential{Sigma2: 2.5, Range: 0.2})
	corr, sd := CorrelationFromCovariance(sigma)
	for i := 0; i < 16; i++ {
		if math.Abs(corr.At(i, i)-1) > 1e-14 {
			t.Fatalf("corr diagonal %v", corr.At(i, i))
		}
		if math.Abs(sd[i]-math.Sqrt(2.5)) > 1e-14 {
			t.Fatalf("sd[%d] = %v", i, sd[i])
		}
	}
	// Off-diagonal entries are Σij/(sd_i·sd_j).
	if math.Abs(corr.At(0, 1)-sigma.At(0, 1)/2.5) > 1e-14 {
		t.Error("off-diagonal scaling wrong")
	}
}

// TestPlanCorrelationIsOrderedCorrelation: the one-gather matrix is the
// location-ordered correlation matrix, permuted — entry for entry.
func TestPlanCorrelationIsOrderedCorrelation(t *testing.T) {
	p := newProblem(t, 4, 0.3)
	plan, err := NewPlan(p.mean, p.sd, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	corr, _ := CorrelationFromCovariance(p.sigma)
	got := plan.Correlation(p.sigma.Col, p.sd)
	ord := plan.Ordering()
	for q := range ord {
		for r := range ord {
			if got.At(r, q) != corr.At(ord[r], ord[q]) {
				t.Fatalf("R[%d][%d] = %v, want corr[%d][%d] = %v", r, q, got.At(r, q), ord[r], ord[q], corr.At(ord[r], ord[q]))
			}
		}
	}
	sd, err := StdDevs(p.sigma.Col, len(p.mean))
	if err != nil {
		t.Fatal(err)
	}
	for i := range sd {
		if sd[i] != p.sd[i] {
			t.Fatalf("StdDevs[%d] = %v, want %v", i, sd[i], p.sd[i])
		}
	}
}

// TestConfidenceFunctionExactlyMonotone: F is non-increasing along the
// ordering with no clamp anywhere — each chain's product only shrinks.
func TestConfidenceFunctionExactlyMonotone(t *testing.T) {
	c, _, rt := setup(t, 6, 0.2, 0.3, mvn.Options{N: 700, Replicates: 3})
	defer rt.Shutdown()
	f := c.ConfidenceFunction()
	prev := 1.0
	for rank, loc := range c.Ordering() {
		if f[loc] > prev {
			t.Errorf("rank %d: F = %v > %v at the rank before", rank+1, f[loc], prev)
		}
		if f[loc] != c.PrefixProb(rank+1) {
			t.Errorf("rank %d: F = %v, PrefixProb %v", rank+1, f[loc], c.PrefixProb(rank+1))
		}
		prev = f[loc]
	}
	if p0 := c.PrefixProb(0); p0 != 1 {
		t.Errorf("PrefixProb(0) = %v", p0)
	}
	// Out-of-range k clamps to n.
	if pn, pm := c.PrefixProb(36), c.PrefixProb(99); pn != pm {
		t.Errorf("clamp failed: %v vs %v", pn, pm)
	}
	if c.PrefixStdErr(0) != 0 || !(c.PrefixStdErr(20) > 0) {
		t.Errorf("PrefixStdErr: %v at 0, %v at 20", c.PrefixStdErr(0), c.PrefixStdErr(20))
	}
}

func TestPrefixProbIndependentMatchesProduct(t *testing.T) {
	// Identity correlation: prefix probability is the product of the
	// ordered marginals.
	rt := taskrt.New(2)
	defer rt.Shutdown()
	n := 9
	mean := make([]float64, n)
	sd := make([]float64, n)
	for i := range mean {
		mean[i] = float64(i) * 0.2
		sd[i] = 1
	}
	plan, err := NewPlan(mean, sd, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	c, err := plan.Integrate(rt, denseFactor(t, rt, plan.Correlation(linalg.Eye(n).Col, sd), 3), mvn.Options{N: 4000})
	if err != nil {
		t.Fatal(err)
	}
	pM := c.MarginalProbs()
	ord := c.Ordering()
	for _, k := range []int{1, 3, 6, 9} {
		want := 1.0
		for _, loc := range ord[:k] {
			want *= pM[loc]
		}
		got := c.PrefixProb(k)
		if math.Abs(got-want) > 1e-12 {
			t.Errorf("k=%d: prefix %v, product %v", k, got, want)
		}
	}
}

// algorithm1 is the literal Algorithm 1 loop, kept as the reference: n
// full-dimension PMVN calls on the LOCATION-ordered factor, call k
// constraining the top-k locations of the marginal ordering and leaving the
// rest free. It returns the estimates and their standard errors by rank.
func algorithm1(rt *taskrt.Runtime, f *mvn.Factor, plan *Plan, opts mvn.Options) (prob, se []float64) {
	n := f.N()
	a, b := make([]float64, n), make([]float64, n)
	for i := range a {
		a[i], b[i] = math.Inf(-1), math.Inf(1)
	}
	for _, loc := range plan.order {
		a[loc] = (plan.U - plan.Mean[loc]) / plan.SD[loc]
		res := mvn.PMVN(rt, f, a, b, opts)
		prob, se = append(prob, res.Prob), append(se, res.StdErr)
	}
	return prob, se
}

// TestOneSweepMatchesAlgorithm1 compares the one-sweep plan with the literal
// loop at n = 144: the confidence function within the combined
// QMC error at every rank (the two integrate in different variable orders, so
// the draws differ), region sizes within a few locations, and the region's MC
// coverage no lower than the confidence level allows.
func TestOneSweepMatchesAlgorithm1(t *testing.T) {
	if testing.Short() {
		t.Skip("144 full-dimension reference integrations")
	}
	p := newProblem(t, 12, 0.25)
	n := len(p.mean)
	rt := taskrt.New(4)
	defer rt.Shutdown()
	corr, _ := CorrelationFromCovariance(p.sigma)
	fLoc := denseFactor(t, rt, corr, 36)
	opts := mvn.Options{N: 500, Replicates: 8}
	const u = -1.2
	c := p.detect(t, rt, u, opts)
	ref, refSE := algorithm1(rt, fLoc, c.Plan, opts)
	worst := 0.0
	for k := 1; k <= n; k++ {
		got, se := c.PrefixProb(k), c.PrefixStdErr(k)
		z := math.Abs(got-ref[k-1]) / math.Hypot(se, refSE[k-1])
		if worst = math.Max(worst, z); z > 4 {
			t.Errorf("rank %d: one sweep %.6g ± %.2g, Algorithm 1 %.6g ± %.2g", k, got, se, ref[k-1], refSE[k-1])
		}
	}
	t.Logf("worst |ΔF| is %.2f combined standard errors", worst)
	for _, conf := range []float64{0.5, 0.8, 0.95} {
		region := c.Region(conf)
		want := 0
		for want < n && ref[want] >= conf {
			want++
		}
		if want == 0 || want == n {
			t.Fatalf("conf %v: reference region %d of %d is degenerate", conf, want, n)
		}
		if d := len(region) - want; d < -2 || d > 2 {
			t.Errorf("conf %v: region %d locations, Algorithm 1 %d", conf, len(region), want)
		}
		const samples = 40000
		phat := MCValidate(region, p.mean, p.sd, u, p.lCorr, samples, rand.New(rand.NewSource(9)))
		if sigma := math.Sqrt(conf * (1 - conf) / samples); phat < conf-3*sigma {
			t.Errorf("conf %v: MC coverage %v of a %d-location region, below %v − 3σ", conf, phat, len(region), conf)
		}
	}
}

// TestOneIntegrationPerDetection: everything a detection reads — every
// prefix, the confidence function, regions at several levels — comes from the
// one integration Integrate made: the runtime ran the "qmc" tasks of exactly
// one, a task per (replicate, lane block).
func TestOneIntegrationPerDetection(t *testing.T) {
	p := newProblem(t, 5, 0.2)
	rt := taskrt.New(2)
	defer rt.Shutdown()
	opts := mvn.Options{N: 300, Replicates: 2}
	c := p.detect(t, rt, 0.1, opts)
	lanes := max(4, len(p.mean)/4) // detect's tile size, the lane width
	for k := 0; k <= 25; k++ {
		c.PrefixProb(k)
	}
	c.ConfidenceFunction()
	for _, conf := range []float64{0.5, 0.9, 0.99} {
		c.Region(conf)
	}
	if got, want := rt.Snapshot().Tasks["qmc"], opts.Replicates*((opts.N+lanes-1)/lanes); got != want {
		t.Errorf("%d qmc tasks for one detection, want the %d of one integration", got, want)
	}
}

// TestIntegrateParallelMatchesInline: column tasks on a 4-worker runtime and
// the inline sweep give the same bits.
func TestIntegrateParallelMatchesInline(t *testing.T) {
	p := newProblem(t, 6, 0.25)
	rt := taskrt.New(4)
	defer rt.Shutdown()
	for _, reps := range []int{1, 3} {
		opts := mvn.Options{N: 300, Replicates: reps}
		par := p.detect(t, rt, 0.2, opts)
		seq := p.detect(t, nil, 0.2, opts)
		for k := 1; k <= 36; k++ {
			if par.PrefixProb(k) != seq.PrefixProb(k) || par.PrefixStdErr(k) != seq.PrefixStdErr(k) {
				t.Errorf("reps=%d rank %d: parallel %v ± %v, inline %v ± %v", reps, k,
					par.PrefixProb(k), par.PrefixStdErr(k), seq.PrefixProb(k), seq.PrefixStdErr(k))
			}
		}
	}
}

func TestRegionNesting(t *testing.T) {
	c, _, rt := setup(t, 5, 0.2, 0.1, mvn.Options{N: 3000})
	defer rt.Shutdown()
	r95 := c.Region(0.95)
	r80 := c.Region(0.80)
	r50 := c.Region(0.50)
	if len(r95) > len(r80) || len(r80) > len(r50) {
		t.Errorf("regions not nested: |r95|=%d |r80|=%d |r50|=%d", len(r95), len(r80), len(r50))
	}
	// Higher confidence region must be a prefix of the lower one.
	for i, loc := range r95 {
		if r80[i] != loc {
			t.Fatal("r95 is not a prefix of r80")
		}
	}
}

// TestRegionIsLargestPrefixAboveConf pins Region against a scan of PrefixProb.
func TestRegionIsLargestPrefixAboveConf(t *testing.T) {
	c, _, rt := setup(t, 4, 0.25, 0.2, mvn.Options{N: 5000})
	defer rt.Shutdown()
	for _, conf := range []float64{0.3, 0.6, 0.9} {
		wantK := 0
		for wantK < 16 && c.PrefixProb(wantK+1) >= conf {
			wantK++
		}
		if region := c.Region(conf); len(region) != wantK {
			t.Errorf("conf %v: region %d locations, scan %d", conf, len(region), wantK)
		}
	}
}

func TestRegionEmptyAndFull(t *testing.T) {
	// Threshold far above the field: no location qualifies at high
	// confidence. Far below: every location qualifies.
	cHigh, _, rt1 := setup(t, 4, 0.2, 50, mvn.Options{N: 500})
	defer rt1.Shutdown()
	if r := cHigh.Region(0.95); len(r) != 0 {
		t.Errorf("u=50: region size %d, want 0", len(r))
	}
	cLow, _, rt2 := setup(t, 4, 0.2, -50, mvn.Options{N: 500})
	defer rt2.Shutdown()
	if r := cLow.Region(0.95); len(r) != 16 {
		t.Errorf("u=-50: region size %d, want 16", len(r))
	}
}

func TestMCValidateMatchesConfidence(t *testing.T) {
	c, p, rt := setup(t, 5, 0.25, 0.0, mvn.Options{N: 8000})
	defer rt.Shutdown()
	for _, conf := range []float64{0.5, 0.8, 0.95} {
		region := c.Region(conf)
		if len(region) == 0 {
			continue
		}
		phat := MCValidate(region, p.mean, p.sd, c.U, p.lCorr, 40000, rand.New(rand.NewSource(9)))
		// p̂ should be ≥ conf (region chosen conservatively) and close to the
		// prefix probability at the boundary.
		pk := c.PrefixProb(len(region))
		if math.Abs(phat-pk) > 0.02 {
			t.Errorf("conf %v: MC validation %v vs PMVN %v", conf, phat, pk)
		}
		if phat < conf-0.02 {
			t.Errorf("conf %v: MC validation %v below confidence", conf, phat)
		}
	}
}

// TestMCValidateMatchesFullField: forming only the region's rows gives the
// hit count of the textbook loop that forms the whole field x = L·z, draw for
// draw (the region holds the last location, so both consume n normals per
// sample).
func TestMCValidateMatchesFullField(t *testing.T) {
	p := newProblem(t, 5, 0.3)
	n := len(p.mean)
	region := []int{3, n - 1, 7, 12}
	const u, samples = -0.6, 3000
	rng := rand.New(rand.NewSource(4))
	hits := 0
	z, x := make([]float64, n), make([]float64, n)
	for s := 0; s < samples; s++ {
		for i := range z {
			z[i] = rng.NormFloat64()
		}
		for i := 0; i < n; i++ {
			x[i] = 0
			for j := 0; j <= i; j++ {
				x[i] += p.lCorr.At(i, j) * z[j]
			}
		}
		ok := true
		for _, loc := range region {
			ok = ok && x[loc] > (u-p.mean[loc])/p.sd[loc]
		}
		if ok {
			hits++
		}
	}
	want := float64(hits) / samples
	if want < 0.05 || want > 0.95 {
		t.Fatalf("reference coverage %v: vacuous", want)
	}
	got := MCValidate(region, p.mean, p.sd, u, p.lCorr, samples, rand.New(rand.NewSource(4)))
	// Dot and the textbook loop round differently: allow a sample or two on
	// the boundary.
	if math.Abs(got-want) > 2.0/samples {
		t.Errorf("MCValidate %v, full-field loop %v", got, want)
	}
}

func TestMCValidateEmptyRegion(t *testing.T) {
	if p := MCValidate(nil, nil, nil, 0, linalg.Eye(3), 100, rand.New(rand.NewSource(1))); p != 1 {
		t.Errorf("empty region validation %v, want 1", p)
	}
}

func TestNewPlanValidation(t *testing.T) {
	ok := []float64{1, 1, 1, 1}
	if _, err := NewPlan(make([]float64, 3), ok, 0); err == nil {
		t.Error("want error for mean length mismatch")
	}
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		name     string
		mean, sd []float64
		u        float64
		what     string
		index    int
	}{
		{"zero sd", ok, []float64{1, 1, 0, 1}, 0, "sd", 2},
		{"negative sd", ok, []float64{-1, 1, 1, 1}, 0, "sd", 0},
		{"NaN sd", ok, []float64{1, nan, 1, 1}, 0, "sd", 1},
		{"infinite sd", ok, []float64{1, 1, 1, inf}, 0, "sd", 3},
		{"NaN mean", []float64{0, 0, nan, 0}, ok, 0, "mean", 2},
		{"infinite mean", []float64{0, -inf, 0, 0}, ok, 0, "mean", 1},
		{"NaN threshold", ok, ok, nan, "threshold", -1},
		{"infinite threshold", ok, ok, inf, "threshold", -1},
	} {
		_, err := NewPlan(tc.mean, tc.sd, tc.u)
		var in *InputError
		if !errors.As(err, &in) || in.What != tc.what || in.Index != tc.index {
			t.Errorf("%s: error %v, want InputError{%s, %d}", tc.name, err, tc.what, tc.index)
		}
	}
	for _, d := range []float64{0, -2, nan, inf} {
		m := linalg.Eye(3)
		m.Set(1, 1, d)
		_, err := StdDevs(m.Col, 3)
		var in *InputError
		if !errors.As(err, &in) || in.Index != 1 {
			t.Errorf("StdDevs with diagonal %v: error %v, want InputError at 1", d, err)
		}
	}
	// A factor of the wrong dimension is refused before any integration.
	rt := taskrt.New(1)
	defer rt.Shutdown()
	plan, err := NewPlan(ok, ok, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plan.Integrate(rt, denseFactor(t, rt, linalg.Eye(6), 3), mvn.Options{}); err == nil {
		t.Error("want error for factor dimension mismatch")
	}
}

// PrefixStdErr returns the randomized-QMC standard error of PrefixProb(k), 0
// when the integration ran fewer than two replicates.
func (c *Computer) PrefixStdErr(k int) float64 {
	if k <= 0 || c.prefix.StdErr == nil {
		return 0
	}
	return c.prefix.StdErr[min(k, len(c.order))-1]
}
