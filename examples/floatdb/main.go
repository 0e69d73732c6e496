// Command floatdb models reconciliation of numerical database replicas:
// two replicas of a table of float measurements that have drifted apart
// through independent rounding (different compression settings, float
// summation orders, unit conversions). Quantized to a fixed-point grid,
// the rows become points in [Δ]^d, and the replicas differ slightly in
// almost every row — the worst case for exact reconciliation and the
// intended case for robust reconciliation.
//
// The example also shows two-way reconciliation, which is the one-way
// protocol run once in each direction: each replica sketches its rows,
// and each reconciles against the other's sketch, so both pull the
// other's genuinely new rows while ignoring rounding drift.
//
// Run it with:
//
//	go run ./examples/floatdb
package main

import (
	"fmt"
	"log"
	"math/rand/v2"

	"robustset"
)

const (
	rows     = 2000
	newRowsA = 7 // rows inserted only at replica A
	newRowsB = 4 // rows inserted only at replica B
	// quantum is the replicas' float drift scale in engineering units
	// (how far independent re-derivation moves a stored value).
	quantum = 1e-4
)

// a measurement row: (temperature °C, pressure kPa).
type row struct{ temp, pressure float64 }

var (
	universe = robustset.Universe{Dim: 2, Delta: 1 << 24}
	// quantizer maps rows into the grid: temperatures 0–100 °C and
	// pressures 0–130 kPa onto 24-bit coordinates.
	quantizer = mustQuantizer()
)

func mustQuantizer() *robustset.Quantizer {
	q, err := robustset.NewQuantizer(universe, []float64{0, 0}, []float64{100, 130})
	if err != nil {
		panic(err)
	}
	return q
}

func main() {
	rng := rand.New(rand.NewPCG(99, 1))

	// The ground-truth table, and two replicas that each re-derived the
	// floats slightly differently (±2 quanta of drift per field).
	truth := make([]row, rows)
	for i := range truth {
		truth[i] = row{temp: rng.Float64() * 100, pressure: 80 + rng.Float64()*40}
	}
	drift := func(v float64) float64 { return v + (rng.Float64()-0.5)*4*quantum }
	replicaA := make([]robustset.Point, 0, rows+newRowsA)
	replicaB := make([]robustset.Point, 0, rows+newRowsB)
	for _, r := range truth {
		replicaA = append(replicaA, quantize(row{drift(r.temp), drift(r.pressure)}))
		replicaB = append(replicaB, quantize(row{drift(r.temp), drift(r.pressure)}))
	}
	for i := 0; i < newRowsA; i++ {
		replicaA = append(replicaA, quantize(row{rng.Float64() * 100, 80 + rng.Float64()*40}))
	}
	for i := 0; i < newRowsB; i++ {
		replicaB = append(replicaB, quantize(row{rng.Float64() * 100, 80 + rng.Float64()*40}))
	}

	fmt.Printf("replica A: %d rows (%d unique), replica B: %d rows (%d unique)\n",
		len(replicaA), newRowsA, len(replicaB), newRowsB)

	// How different do the replicas look to an exact comparator? Count
	// rows without a bit-identical twin.
	exactMatches := countExactMatches(replicaA, replicaB)
	fmt.Printf("rows with bit-identical twins: %d of %d (%.1f%%) — exact sync would transfer the rest\n\n",
		exactMatches, rows, 100*float64(exactMatches)/float64(rows))

	params := robustset.Params{
		Universe:   universe,
		Seed:       4242,
		DiffBudget: newRowsA + newRowsB,
	}

	// Run the one-way protocol in both directions. The model's repair
	// replaces each party's view (S'_B ≈ S_A, which would drop B's own
	// new rows); databases usually want union semantics instead, so each
	// replica keeps its rows and ingests only what the protocol decoded
	// as genuinely new — Result.Added exposes exactly that.
	skA, err := robustset.NewSketch(params, replicaA)
	if err != nil {
		log.Fatal(err)
	}
	skB, err := robustset.NewSketch(params, replicaB)
	if err != nil {
		log.Fatal(err)
	}
	resB, err := robustset.Reconcile(skA, replicaB) // B learns from A
	if err != nil {
		log.Fatal(err)
	}
	resA, err := robustset.Reconcile(skB, replicaA) // A learns from B
	if err != nil {
		log.Fatal(err)
	}

	wire, _ := skA.MarshalBinary()
	fmt.Printf("sketch size per direction: %d bytes (vs %d bytes for a full dump)\n",
		len(wire), 16*len(replicaA))
	fmt.Printf("grid level used: %d (cell width %d ≈ %.4f engineering units)\n\n",
		resB.Level, resB.CellWidth, float64(resB.CellWidth)*quantizer.Step(0))

	d0, _ := robustset.EMDApprox(replicaA, replicaB, universe, 5)
	d1, _ := robustset.EMDApprox(replicaA, resB.SPrime, universe, 5)
	fmt.Printf("replica B distance to A (grid-EMD estimate): %.0f → %.0f quanta\n\n", d0, d1)

	fmt.Printf("rows replica B learned from A (%d):\n", len(resB.Added))
	for _, p := range resB.Added {
		r := dequantize(p)
		fmt.Printf("  temp=%8.4f°C pressure=%9.4f kPa\n", r.temp, r.pressure)
	}
	fmt.Printf("rows replica A learned from B (%d):\n", len(resA.Added))
	for _, p := range resA.Added {
		r := dequantize(p)
		fmt.Printf("  temp=%8.4f°C pressure=%9.4f kPa\n", r.temp, r.pressure)
	}

	// Union ingestion: keep local rows, add the learned ones.
	unionB := append(robustset.ClonePoints(replicaB), resB.Added...)
	fmt.Printf("\nreplica B after union ingestion: %d rows\n", len(unionB))
}

// quantize maps a row into the grid via the library's Quantizer.
func quantize(r row) robustset.Point {
	p, err := quantizer.Quantize([]float64{r.temp, r.pressure})
	if err != nil {
		panic(err)
	}
	return p
}

// dequantize maps grid coordinates back to engineering units.
func dequantize(p robustset.Point) row {
	v, err := quantizer.Dequantize(p)
	if err != nil {
		panic(err)
	}
	return row{temp: v[0], pressure: v[1]}
}

// countExactMatches counts rows of a with a bit-identical row in b.
func countExactMatches(a, b []robustset.Point) int {
	index := make(map[[2]int64]int, len(b))
	for _, p := range b {
		index[[2]int64{p[0], p[1]}]++
	}
	matches := 0
	for _, p := range a {
		k := [2]int64{p[0], p[1]}
		if index[k] > 0 {
			index[k]--
			matches++
		}
	}
	return matches
}
