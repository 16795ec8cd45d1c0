package datagen

import (
	"math"
	"math/rand"

	"repro/internal/cov"
	"repro/internal/geo"
)

// The wind generator is a synthetic stand-in for the Saudi-Arabia wind speed
// dataset the paper analyzes (hourly WRF reanalysis aggregated to daily means
// over 53,362 locations, 2013–2016). The real data is not redistributable, so
// GenerateWind produces a field with the same structure the application code
// exercises: an orography-flavoured mean surface (elevated winds in the north,
// east and southwest mountains, as in the paper's Figure 2a), a smooth
// spatially correlated daily anomaly with temporal AR(1) persistence and a
// seasonal cycle, on a longitude/latitude box over the Arabian peninsula.

// windDomain is the approximate Saudi-Arabia bounding box of the paper's maps.
var windDomain = struct{ Lon0, Lon1, Lat0, Lat1 float64 }{34, 56, 16, 33}

// WindDataset is a simulated multi-day wind speed record.
type WindDataset struct {
	Geom   *geo.Geom   // locations in lon/lat
	Speeds [][]float64 // Speeds[d][i]: daily mean wind speed (m/s) on day d at location i
}

// Days returns the number of simulated days.
func (d *WindDataset) Days() int { return len(d.Speeds) }

// meanSurface is the "climatological" wind speed in m/s: a 5 m/s base with
// bumps over the northern plateau, the eastern coast and the southwestern
// (Asir) mountains, and calmer interior desert — shaped to resemble the
// paper's Figure 2a.
func meanSurface(p geo.Point) float64 {
	bump := func(lon, lat, amp, scale float64) float64 {
		dx := (p.X - lon) / scale
		dy := (p.Y - lat) / scale
		return amp * math.Exp(-(dx*dx+dy*dy)/2)
	}
	v := 4.2
	v += bump(41, 31, 3.5, 3.5) // north
	v += bump(50, 27, 2.8, 3.0) // east (Gulf coast)
	v += bump(43, 19, 3.2, 2.5) // southwest mountains
	v -= bump(46, 24, 1.8, 4.0) // calmer central desert
	return v
}

// WindConfig controls the generator.
type WindConfig struct {
	Nx, Ny int     // grid resolution over the domain
	Days   int     // number of simulated days
	Seed   int64   // RNG seed
	Range  float64 // spatial range of the daily anomaly, in domain fraction (default 0.12)
	Nu     float64 // Matérn smoothness of the anomaly (default 1.43391, the paper's fit)
	SD     float64 // anomaly standard deviation in m/s (default 1.6)
	AR1    float64 // day-to-day persistence (default 0.6)
}

func (c WindConfig) withDefaults() WindConfig {
	if c.Nx <= 0 {
		c.Nx = 24
	}
	if c.Ny <= 0 {
		c.Ny = 20
	}
	if c.Days <= 0 {
		c.Days = 120
	}
	if c.Range <= 0 {
		c.Range = 0.12
	}
	if c.Nu <= 0 {
		c.Nu = 1.43391
	}
	if c.SD <= 0 {
		c.SD = 1.6
	}
	if c.AR1 == 0 {
		c.AR1 = 0.6
	}
	return c
}

// GenerateWind simulates the dataset. The spatial anomaly field uses a
// Matérn kernel factorized once and shared across days; wind speeds are
// floored at 0.2 m/s to stay physical.
func GenerateWind(cfg WindConfig) (*WindDataset, error) {
	c := cfg.withDefaults()
	rng := rand.New(rand.NewSource(c.Seed))
	unit := geo.RegularGrid(c.Nx, c.Ny)
	k := cov.NewMatern(1, c.Range, c.Nu)
	field, err := newSampler(cov.Matrix(unit, &cov.Nugget{Kernel: k, Tau2: 1e-8}))
	if err != nil {
		return nil, err
	}
	g := unit.Rect(windDomain.Lon0, windDomain.Lon1, windDomain.Lat0, windDomain.Lat1)
	n := g.Len()
	base := make([]float64, n)
	for i, p := range g.Pts {
		base[i] = meanSurface(p)
	}
	d := &WindDataset{Geom: g, Speeds: make([][]float64, c.Days)}
	anom := make([]float64, n)  // AR(1) state
	fresh := make([]float64, n) // innovation
	innovScale := math.Sqrt(1 - c.AR1*c.AR1)
	for day := 0; day < c.Days; day++ {
		field.draw(rng, fresh)
		season := 0.8 * math.Sin(2*math.Pi*float64(day)/365+1.1)
		row := make([]float64, n)
		for i := 0; i < n; i++ {
			if day == 0 {
				anom[i] = fresh[i]
			} else {
				anom[i] = c.AR1*anom[i] + innovScale*fresh[i]
			}
			v := base[i] + season + c.SD*anom[i]
			if v < 0.2 {
				v = 0.2
			}
			row[i] = v
		}
		d.Speeds[day] = row
	}
	return d, nil
}

// Standardize returns the standardized field for one day:
// z_i = (speed_i − mean_i)/sd_i with the per-location mean and standard
// deviation taken over all days — the preprocessing the paper applies
// before fitting the Matérn model (Section V-C.2).
func (d *WindDataset) Standardize(day int) (z, mean, sd []float64) {
	n := d.Geom.Len()
	days := float64(d.Days())
	mean = make([]float64, n)
	sd = make([]float64, n)
	for _, row := range d.Speeds {
		for i, v := range row {
			mean[i] += v
		}
	}
	for i := range mean {
		mean[i] /= days
	}
	for _, row := range d.Speeds {
		for i, v := range row {
			dv := v - mean[i]
			sd[i] += dv * dv
		}
	}
	for i := range sd {
		sd[i] = math.Sqrt(sd[i] / (days - 1))
		if sd[i] < 1e-9 {
			sd[i] = 1e-9
		}
	}
	z = make([]float64, n)
	for i, v := range d.Speeds[day] {
		z[i] = (v - mean[i]) / sd[i]
	}
	return z, mean, sd
}
