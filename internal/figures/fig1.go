package figures

import (
	"fmt"
	"io"
	"math"
	"math/rand"

	"repro/internal/datagen"
	"repro/internal/excursion"
	"repro/internal/linalg"
	"repro/internal/taskrt"
)

// Fig1Row is one (correlation level, confidence level) cell of Figure 1.
type Fig1Row struct {
	Level        string
	Conf         float64 // 1 − α
	RegionDense  int     // |E⁺| via dense factorization
	RegionTLR    int     // |E⁺| via TLR factorization
	MarginalSize int     // #{pM ≥ 1−α}: the naive marginal-probability region
	MCErrDense   float64 // 1−α − p̂(α), dense
	MCErrTLR     float64 // 1−α − p̂(α), TLR
	PrefixDense  float64 // PMVN probability at the dense region boundary
	PrefixTLR    float64 // PMVN probability at the TLR region boundary
	DenseTLRDiff float64 // |P_dense − P_TLR| at the dense region boundary
}

// Fig1 reproduces the accuracy assessment on the synthetic datasets
// (paper Figure 1): confidence-region detection with dense and TLR
// factorizations on posterior fields at three correlation levels, validated
// with the MC algorithm. It returns all rows and writes a table.
func Fig1(w io.Writer, cfg Config) ([]Fig1Row, error) {
	side := 16 // 256 locations
	qmcN := 2500
	mcN := 12000
	obsFrac := 0.25
	if !cfg.Quick {
		side = 32 // 1024 locations
		qmcN = 10000
		mcN = 50000
	}
	tlrTol := 1e-3
	u := 0.0
	confs := []float64{0.2, 0.35, 0.5, 0.65, 0.8, 0.9, 0.95}

	var rows []Fig1Row
	fmt.Fprintf(w, "Figure 1: CRD accuracy on %dx%d synthetic posterior fields (QMC N=%d, MC val N=%d, TLR acc %.0e)\n",
		side, side, qmcN, mcN, tlrTol)
	fmt.Fprintf(w, "%-8s %6s %8s %8s %9s %12s %12s %12s\n",
		"level", "1-a", "|E|dense", "|E|tlr", "marginal", "MCerr-dense", "MCerr-tlr", "dense-tlr")
	for _, lv := range Levels {
		ds, err := datagen.NewSyntheticDataset(side, int(obsFrac*float64(side*side)), lv.Name, rand.New(rand.NewSource(42)))
		if err != nil {
			return nil, fmt.Errorf("fig1 %s: %w", lv.Name, err)
		}
		mu := ds.PostMu
		corr, sd := excursion.CorrelationFromCovariance(ds.PostCov)
		rt := taskrt.New(cfg.workers())
		lCorr, err := linalg.CholeskyTasks(rt, corr.Clone())
		if err != nil {
			rt.Shutdown()
			return nil, err
		}
		ts := side * side / 8
		cD, cT, err := detectDenseTLR(rt, corr, mu, sd, u, ts, tlrTol, qmcN)
		if err != nil {
			rt.Shutdown()
			return nil, err
		}
		pM := cD.MarginalProbs()
		for _, conf := range confs {
			regD := cD.Region(conf)
			regT := cT.Region(conf)
			marg := 0
			for _, p := range pM {
				if p >= conf {
					marg++
				}
			}
			mcRng := rand.New(rand.NewSource(7))
			phatD := excursion.MCValidate(regD, mu, sd, u, lCorr, mcN, mcRng)
			mcRng = rand.New(rand.NewSource(7))
			phatT := excursion.MCValidate(regT, mu, sd, u, lCorr, mcN, mcRng)
			diff := math.Abs(cD.PrefixProb(len(regD)) - cT.PrefixProb(len(regD)))
			row := Fig1Row{
				Level: lv.Name, Conf: conf,
				RegionDense: len(regD), RegionTLR: len(regT), MarginalSize: marg,
				MCErrDense: conf - phatD, MCErrTLR: conf - phatT,
				PrefixDense: cD.PrefixProb(len(regD)), PrefixTLR: cT.PrefixProb(len(regT)),
				DenseTLRDiff: diff,
			}
			rows = append(rows, row)
			fmt.Fprintf(w, "%-8s %6.2f %8d %8d %9d %12.5f %12.5f %12.3e\n",
				row.Level, row.Conf, row.RegionDense, row.RegionTLR, row.MarginalSize,
				row.MCErrDense, row.MCErrTLR, row.DenseTLRDiff)
		}
		rt.Shutdown()
	}
	return rows, nil
}
