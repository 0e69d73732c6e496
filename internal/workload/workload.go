// Package workload generates the synthetic reconciliation inputs used by
// tests, examples and the bench harness. A workload instance models
// the paper's motivating scenario: Bob holds n points; Alice holds noisy
// copies of n−k of them (sensor noise, float rounding, lossy compression)
// plus k genuinely new points that Bob should learn about.
package workload

import (
	"fmt"
	"math"
	"math/rand/v2"

	"robustset/internal/points"
)

// Noise selects the perturbation model applied to paired points.
type Noise int

const (
	// NoiseNone leaves paired points identical (the classic exact
	// reconciliation regime).
	NoiseNone Noise = iota
	// NoiseUniform perturbs each coordinate by an independent uniform
	// integer in [−Scale, +Scale].
	NoiseUniform
	// NoiseGaussian perturbs each coordinate by a rounded Gaussian with
	// standard deviation Scale.
	NoiseGaussian
)

func (n Noise) String() string {
	switch n {
	case NoiseNone:
		return "none"
	case NoiseUniform:
		return "uniform"
	case NoiseGaussian:
		return "gaussian"
	}
	return fmt.Sprintf("noise(%d)", int(n))
}

// Config parameterizes a workload.
type Config struct {
	// N is the number of points per party.
	N int
	// Universe is the point domain.
	Universe points.Universe
	// Outliers is k: how many of Alice's points are fresh rather than
	// noisy copies of Bob's.
	Outliers int
	// Noise and Scale select the perturbation applied to the n−k pairs.
	Noise Noise
	Scale float64
	// Clusters > 0 draws base points from that many Gaussian clusters
	// (spread Delta/16) instead of uniformly; sensor-style data is
	// clustered, and clustering stresses the grid's collision behaviour.
	Clusters int
	// Seed makes generation deterministic.
	Seed uint64
}

// Instance is a generated reconciliation problem.
type Instance struct {
	Config Config
	// Alice and Bob are the two parties' multisets, each of size N.
	// Alice[i] corresponds to Bob[i] for every non-outlier index.
	Alice, Bob []points.Point
	// OutlierIdx lists the indices of Alice's fresh points.
	OutlierIdx []int
	// PairNoiseL1 is Σ over paired indices of ‖Alice[i]−Bob[i]‖₁ — the
	// cost of the natural pairing, an upper bound on EMD_k(Alice,Bob).
	PairNoiseL1 float64
}

// Generate builds a workload instance.
func Generate(cfg Config) (*Instance, error) {
	if err := cfg.Universe.Validate(); err != nil {
		return nil, err
	}
	if cfg.N < 1 {
		return nil, fmt.Errorf("workload: n %d < 1", cfg.N)
	}
	if cfg.Outliers < 0 || cfg.Outliers > cfg.N {
		return nil, fmt.Errorf("workload: outliers %d outside [0,%d]", cfg.Outliers, cfg.N)
	}
	if cfg.Scale < 0 {
		return nil, fmt.Errorf("workload: negative noise scale %v", cfg.Scale)
	}
	rng := rand.New(rand.NewPCG(cfg.Seed, ^cfg.Seed))
	u := cfg.Universe

	var centers []points.Point
	if cfg.Clusters > 0 {
		centers = make([]points.Point, cfg.Clusters)
		for i := range centers {
			centers[i] = uniformPoint(rng, u)
		}
	}
	base := func() points.Point {
		if centers == nil {
			return uniformPoint(rng, u)
		}
		c := centers[rng.IntN(len(centers))]
		p := make(points.Point, u.Dim)
		spread := float64(u.Delta) / 16
		for j := range p {
			p[j] = c[j] + int64(math.Round(rng.NormFloat64()*spread))
		}
		return u.Clamp(p)
	}

	inst := &Instance{Config: cfg}
	inst.Bob = make([]points.Point, cfg.N)
	inst.Alice = make([]points.Point, cfg.N)
	for i := range inst.Bob {
		inst.Bob[i] = base()
	}
	// Choose outlier indices without replacement.
	perm := rng.Perm(cfg.N)
	outliers := make(map[int]bool, cfg.Outliers)
	for _, i := range perm[:cfg.Outliers] {
		outliers[i] = true
	}
	for i := range inst.Alice {
		if outliers[i] {
			inst.Alice[i] = base()
			inst.OutlierIdx = append(inst.OutlierIdx, i)
			continue
		}
		inst.Alice[i] = perturb(rng, u, inst.Bob[i], cfg.Noise, cfg.Scale)
		inst.PairNoiseL1 += points.L1.Distance(inst.Alice[i], inst.Bob[i])
	}
	return inst, nil
}

func uniformPoint(rng *rand.Rand, u points.Universe) points.Point {
	p := make(points.Point, u.Dim)
	for j := range p {
		p[j] = rng.Int64N(u.Delta)
	}
	return p
}

func perturb(rng *rand.Rand, u points.Universe, p points.Point, noise Noise, scale float64) points.Point {
	if noise == NoiseNone || scale == 0 {
		return p.Clone()
	}
	q := make(points.Point, len(p))
	for j, c := range p {
		switch noise {
		case NoiseUniform:
			s := int64(scale)
			q[j] = c + rng.Int64N(2*s+1) - s
		case NoiseGaussian:
			q[j] = c + int64(math.Round(rng.NormFloat64()*scale))
		default:
			q[j] = c
		}
	}
	return u.Clamp(q)
}

// TruePairing returns the index pairing (Alice[i], Bob[i]) restricted to
// non-outliers, as index pairs. Experiments use it to compute reference
// costs without solving an assignment problem.
func (inst *Instance) TruePairing() [][2]int {
	out := make([][2]int, 0, len(inst.Alice)-len(inst.OutlierIdx))
	outl := make(map[int]bool, len(inst.OutlierIdx))
	for _, i := range inst.OutlierIdx {
		outl[i] = true
	}
	for i := range inst.Alice {
		if !outl[i] {
			out = append(out, [2]int{i, i})
		}
	}
	return out
}
