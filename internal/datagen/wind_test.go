package datagen

import (
	"math"
	"testing"

	"repro/internal/geo"
)

func smallWind() WindConfig {
	return WindConfig{Nx: 10, Ny: 8, Days: 60, Seed: 1}
}

func TestGenerateShapes(t *testing.T) {
	d, err := GenerateWind(smallWind())
	if err != nil {
		t.Fatal(err)
	}
	if d.Geom.Len() != 80 {
		t.Fatalf("n = %d", d.Geom.Len())
	}
	if d.Days() != 60 {
		t.Fatalf("days = %d", d.Days())
	}
	for day, row := range d.Speeds {
		if len(row) != 80 {
			t.Fatalf("day %d row length %d", day, len(row))
		}
	}
}

func TestSpeedsPhysical(t *testing.T) {
	d, err := GenerateWind(smallWind())
	if err != nil {
		t.Fatal(err)
	}
	for day, row := range d.Speeds {
		for i, v := range row {
			if v < 0.2 || v > 25 || math.IsNaN(v) {
				t.Fatalf("day %d loc %d speed %v unphysical", day, i, v)
			}
		}
	}
}

func TestDomainCoordinates(t *testing.T) {
	d, _ := GenerateWind(smallWind())
	for _, p := range d.Geom.Pts {
		if p.X < windDomain.Lon0 || p.X > windDomain.Lon1 || p.Y < windDomain.Lat0 || p.Y > windDomain.Lat1 {
			t.Fatalf("point %+v outside domain", p)
		}
	}
}

func TestDeterministicBySeed(t *testing.T) {
	a, _ := GenerateWind(smallWind())
	b, _ := GenerateWind(smallWind())
	for day := range a.Speeds {
		for i := range a.Speeds[day] {
			if a.Speeds[day][i] != b.Speeds[day][i] {
				t.Fatal("same seed produced different data")
			}
		}
	}
	cfg := smallWind()
	cfg.Seed = 2
	c, _ := GenerateWind(cfg)
	same := true
	for i := range a.Speeds[0] {
		if a.Speeds[0][i] != c.Speeds[0][i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical data")
	}
}

func TestMeanSurfaceStructure(t *testing.T) {
	// The southwest mountains must be windier than the central desert, as
	// in the paper's maps.
	sw := meanSurface(geo.Point{X: 43, Y: 19})
	desert := meanSurface(geo.Point{X: 46, Y: 24})
	north := meanSurface(geo.Point{X: 41, Y: 31})
	if sw <= desert || north <= desert {
		t.Errorf("mean surface structure wrong: sw=%v north=%v desert=%v", sw, north, desert)
	}
}

func TestStandardizeMoments(t *testing.T) {
	cfg := smallWind()
	cfg.Days = 200
	d, err := GenerateWind(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, mean, sd := d.Standardize(100)
	// Re-standardizing every day and averaging must give ~0 mean, ~1 sd.
	n := d.Geom.Len()
	m1 := make([]float64, n)
	m2 := make([]float64, n)
	for day := 0; day < d.Days(); day++ {
		z, _, _ := d.Standardize(day)
		for i, v := range z {
			m1[i] += v
			m2[i] += v * v
		}
	}
	for i := 0; i < n; i++ {
		if avg := m1[i] / float64(d.Days()); math.Abs(avg) > 1e-10 {
			t.Fatalf("standardized mean at %d = %v", i, avg)
		}
		if v := m2[i] / float64(d.Days()-1); math.Abs(v-1) > 0.05 {
			t.Fatalf("standardized var at %d = %v", i, v)
		}
	}
	for i := range sd {
		if sd[i] <= 0 || mean[i] < 0.2 {
			t.Fatalf("implausible mean/sd at %d: %v, %v", i, mean[i], sd[i])
		}
	}
}

func TestSpatialCorrelationPositive(t *testing.T) {
	// Neighbouring locations must be positively correlated across days.
	cfg := smallWind()
	cfg.Days = 150
	d, _ := GenerateWind(cfg)
	i, j := 0, 1 // adjacent grid points
	var si, sj, sij, s2i, s2j float64
	days := float64(d.Days())
	for _, row := range d.Speeds {
		si += row[i]
		sj += row[j]
	}
	mi, mj := si/days, sj/days
	for _, row := range d.Speeds {
		sij += (row[i] - mi) * (row[j] - mj)
		s2i += (row[i] - mi) * (row[i] - mi)
		s2j += (row[j] - mj) * (row[j] - mj)
	}
	corr := sij / math.Sqrt(s2i*s2j)
	if corr < 0.3 {
		t.Errorf("neighbour correlation %v too weak", corr)
	}
	// A far-away pair should be less correlated than neighbours.
	k := d.Geom.Len() - 1
	var sk, s2k, sik float64
	for _, row := range d.Speeds {
		sk += row[k]
	}
	mk := sk / days
	for _, row := range d.Speeds {
		sik += (row[i] - mi) * (row[k] - mk)
		s2k += (row[k] - mk) * (row[k] - mk)
	}
	corrFar := sik / math.Sqrt(s2i*s2k)
	if corrFar >= corr {
		t.Errorf("far correlation %v not below near correlation %v", corrFar, corr)
	}
}

func TestTemporalPersistence(t *testing.T) {
	cfg := smallWind()
	cfg.Days = 200
	d, _ := GenerateWind(cfg)
	// Lag-1 autocorrelation of the standardized series at a location should
	// be positive (AR(1) with coefficient 0.6).
	var num, den float64
	zPrev, _, _ := d.Standardize(0)
	prev := zPrev[5]
	mean := 0.0
	vals := make([]float64, d.Days())
	for day := 0; day < d.Days(); day++ {
		z, _, _ := d.Standardize(day)
		vals[day] = z[5]
		mean += z[5]
	}
	mean /= float64(d.Days())
	for day := 1; day < d.Days(); day++ {
		num += (vals[day] - mean) * (vals[day-1] - mean)
	}
	for day := 0; day < d.Days(); day++ {
		den += (vals[day] - mean) * (vals[day] - mean)
	}
	if ac := num / den; ac < 0.25 {
		t.Errorf("lag-1 autocorrelation %v too weak for AR1=0.6", ac)
	}
	_ = prev
}
