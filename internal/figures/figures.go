// Package figures regenerates every table and figure of the paper's
// evaluation section as text: the synthetic-data accuracy assessment
// (Fig. 1), the wind-speed application maps and dense-vs-TLR differences
// (Figs. 2–3), the shared-memory performance sweep and TLR speedup table
// (Fig. 4, Table II), the TLR rank-distribution maps (Fig. 5), the MC
// validation cost (Fig. 6) and the simulated distributed-memory scaling
// (Fig. 7, Table III). Each experiment has a Quick variant sized for a
// laptop and a full variant closer to the paper's settings; absolute times
// differ from the paper's hardware, but the comparative shapes are the
// reproduction target.
package figures

import (
	"fmt"
	"io"
	"math"
	"time"

	"repro/internal/cov"
	"repro/internal/engine"
	"repro/internal/excursion"
	"repro/internal/geo"
	"repro/internal/linalg"
	"repro/internal/mvn"
	"repro/internal/taskrt"
)

// Config controls the harness.
type Config struct {
	// Quick shrinks every experiment to seconds-scale.
	Quick bool
	// Workers for the task runtime (default 4; on a single-core host the
	// runtime still schedules correctly).
	Workers int
}

func (c Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return 4
}

// Levels are the paper's three synthetic correlation levels.
var Levels = []struct {
	Name  string
	Range float64
}{
	{"weak", 0.033},
	{"medium", 0.1},
	{"strong", 0.234},
}

// timeIt runs f once and returns the elapsed wall time in seconds.
func timeIt(f func()) float64 {
	start := time.Now()
	f()
	return time.Since(start).Seconds()
}

// factorWith factorizes the layout asm builds on the empty grid g.
func factorWith(rt *taskrt.Runtime, g *engine.Grid, asm *engine.Assembler) (*mvn.Factor, error) {
	if err := engine.PotrfStream(rt, g, asm); err != nil {
		return nil, err
	}
	return mvn.NewFactor(g), nil
}

// sigmaFill reads sigma in place, in runs, as MVNProbCov reads an explicit Σ.
func sigmaFill(sigma *linalg.Matrix) engine.RunFill {
	return func(dst []float64, row0, j int) { copy(dst, sigma.Col(j)[row0:]) }
}

// layout is the session's preset for the dense layout (tol = 0) or the TLR
// layout at accuracy tol > 0.
func layout(tol float64) engine.Policy {
	if tol > 0 {
		p := engine.Presets[1] // TLR
		p.Tol = tol
		return p
	}
	return engine.Presets[0] // dense
}

// factorize computes the tiled Cholesky factor of sigma the way MVNProbCov
// does: the dense layout, or the TLR layout at accuracy tol > 0.
func factorize(rt *taskrt.Runtime, sigma *linalg.Matrix, ts int, tol float64) (*mvn.Factor, error) {
	g := engine.NewGrid(sigma.Rows, ts)
	return factorWith(rt, g, layout(tol).EntryAssembler(g, sigmaFill(sigma), true))
}

// tlrCompress builds the TLR layout of sigma at accuracy tol without
// factorizing it (the pmvn_init compression step, excluded from the paper's
// timings).
func tlrCompress(sigma *linalg.Matrix, ts int, tol float64) *engine.Grid {
	g := engine.NewGrid(sigma.Rows, ts)
	engine.Assemble(g, layout(tol).EntryAssembler(g, sigmaFill(sigma), true))
	return g
}

// factorCompressed factorizes the tiles of a tlrCompress layout as they
// stand, each handed to the graph by the task that first needs it.
func factorCompressed(rt *taskrt.Runtime, pre *engine.Grid, tol float64) (*mvn.Factor, error) {
	return factorWith(rt, engine.NewGrid(pre.N, pre.TS), &engine.Assembler{Tile: pre.At, Policy: layout(tol)})
}

// asciiMap renders a scalar field on an nx×ny grid as a small character
// map (row 0 at the bottom, like the paper's latitude axis).
func asciiMap(w io.Writer, vals []float64, nx, ny int, lo, hi float64) {
	const shades = " .:-=+*#%@"
	span := hi - lo
	if span <= 0 {
		span = 1 // constant field: render everything at the low shade
	}
	for j := ny - 1; j >= 0; j-- {
		for i := 0; i < nx; i++ {
			v := vals[j*nx+i]
			t := (v - lo) / span
			if t < 0 {
				t = 0
			}
			if t > 1 {
				t = 1
			}
			idx := int(t * float64(len(shades)-1))
			fmt.Fprintf(w, "%c", shades[idx])
		}
		fmt.Fprintln(w)
	}
}

func boolMap(region []int, n int) []float64 {
	v := make([]float64, n)
	for _, i := range region {
		v[i] = 1
	}
	return v
}

func minMax(vals []float64) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, v := range vals {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	if lo == hi {
		hi = lo + 1
	}
	return
}

// exponentialCorrelation builds the exponential-kernel covariance (which is
// already a correlation matrix at σ²=1) on a side×side grid.
func exponentialCorrelation(side int, rng float64) (*geo.Geom, *linalg.Matrix) {
	g := geo.RegularGrid(side, side)
	return g, cov.Matrix(g, &cov.Exponential{Sigma2: 1, Range: rng})
}

// detectDenseTLR runs one detection problem through a dense and a TLR factor
// of the same marginal-ordered correlation matrix: corr is the field's
// correlation in location order, (mean, sd) its marginals.
func detectDenseTLR(rt *taskrt.Runtime, corr *linalg.Matrix, mean, sd []float64, u float64, ts int, tlrTol float64, qmcN int) (cD, cT *excursion.Computer, err error) {
	plan, err := excursion.NewPlan(mean, sd, u)
	if err != nil {
		return nil, nil, err
	}
	ordered := plan.Correlation(corr.Col, nil)
	fD, err := factorize(rt, ordered, ts, 0)
	if err != nil {
		return nil, nil, err
	}
	fT, err := factorize(rt, ordered, ts, tlrTol)
	if err != nil {
		return nil, nil, err
	}
	if cD, err = plan.Integrate(rt, fD, mvn.Options{N: qmcN}); err != nil {
		return nil, nil, err
	}
	cT, err = plan.Integrate(rt, fT, mvn.Options{N: qmcN})
	return cD, cT, err
}
