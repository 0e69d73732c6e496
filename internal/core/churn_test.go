package core

import (
	"errors"
	"math/rand/v2"
	"testing"

	"robustset/internal/points"
	"robustset/internal/workload"
)

// TestMaintainerRemoveHeavyChurn drives the maintainer through long
// remove-heavy add/remove interleavings — the shape a replication node
// sees when mirroring a shrinking upstream — and asserts at checkpoints
// that the incremental sketch stays byte-identical to a fresh
// BuildSketch of the surviving multiset. Remove-heavy schedules stress
// the occurrence-index reuse paths (a slot freed by a remove must be the
// one the next add of that cell reuses) far harder than balanced churn.
func TestMaintainerRemoveHeavyChurn(t *testing.T) {
	// Morton codes of one word (2 × 13 bits), two (8 × 10 = 80 bits) and
	// five (16 × 17 = 272 bits).
	for _, u := range []points.Universe{{Dim: 2, Delta: 1 << 12}, {Dim: 8, Delta: 1 << 9}, {Dim: 16, Delta: 1 << 16}} {
		testMaintainerRemoveHeavyChurn(t, u)
	}
}

func testMaintainerRemoveHeavyChurn(t *testing.T, u points.Universe) {
	p := testParams(u, 4, 17)
	for _, seed := range []uint64{1, 2, 3} {
		rng := rand.New(rand.NewPCG(seed, seed*7919))
		inst := genInstance(t, workload.Config{N: 400, Universe: u, Seed: seed + 100, Clusters: 4})

		m, err := NewMaintainer(p, inst.Bob)
		if err != nil {
			t.Fatal(err)
		}
		// Clustered points plus deliberate duplicates: multi-occupancy
		// cells are where occurrence indices can go wrong.
		current := points.Clone(inst.Bob)
		for i := 0; i < 40; i++ {
			dup := current[rng.IntN(len(current))].Clone()
			if err := m.Add(dup); err != nil {
				t.Fatal(err)
			}
			current = append(current, dup)
		}

		// VerifyFreshBuild is the byte-identity oracle this test pins;
		// recovery reuses it against snapshot+replay state (recover_test.go).
		checkpoint := func(step int) {
			if err := m.VerifyFreshBuild(current); err != nil {
				t.Fatalf("seed %d step %d (%d survivors): %v", seed, step, len(current), err)
			}
		}

		for step := 0; step < 1200; step++ {
			// 70% removes while points remain: the multiset shrinks from
			// 440 toward a small survivor core, crossing every cell's
			// occupancy through 1 and 0 repeatedly.
			if len(current) > 0 && rng.IntN(10) < 7 {
				i := rng.IntN(len(current))
				if err := m.Remove(current[i]); err != nil {
					t.Fatalf("seed %d step %d: remove: %v", seed, step, err)
				}
				current[i] = current[len(current)-1]
				current = current[:len(current)-1]
			} else {
				var pt points.Point
				if len(current) > 0 && rng.IntN(3) == 0 {
					pt = current[rng.IntN(len(current))].Clone() // re-add a duplicate
				} else {
					pt = make(points.Point, u.Dim)
					for j := range pt {
						pt[j] = rng.Int64N(u.Delta)
					}
				}
				if err := m.Add(pt); err != nil {
					t.Fatalf("seed %d step %d: add: %v", seed, step, err)
				}
				current = append(current, pt)
			}
			if step%150 == 149 {
				checkpoint(step)
			}
		}
		if m.Count() != len(current) {
			t.Fatalf("seed %d: count %d, want %d", seed, m.Count(), len(current))
		}
		checkpoint(1200)

		// Drain to empty: the final frontier of remove-heavy churn. The
		// empty maintained sketch must equal a fresh build of nothing.
		for len(current) > 0 {
			i := rng.IntN(len(current))
			if err := m.Remove(current[i]); err != nil {
				t.Fatalf("seed %d drain: %v", seed, err)
			}
			current[i] = current[len(current)-1]
			current = current[:len(current)-1]
		}
		checkpoint(-1)
		// Removing from the drained multiset must fail cleanly, not
		// corrupt the tables.
		if err := m.Remove(make(points.Point, u.Dim)); !errors.Is(err, ErrNotPresent) {
			t.Fatalf("seed %d: remove from empty multiset: %v", seed, err)
		}
		checkpoint(-2)
	}
}
