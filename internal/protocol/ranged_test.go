package protocol

import (
	"bytes"
	"sort"
	"testing"

	"robustset/internal/points"
	"robustset/internal/ranges"
	"robustset/internal/transport"
)

func TestRangedHappyPath(t *testing.T) {
	inst, err := exactInstanceForProtocol(t, 300, 10)
	if err != nil {
		t.Fatal(err)
	}
	cfg := RangedConfig{Universe: testU, Seed: 7}
	runPair(t,
		func(tr transport.Transport) error { return RunRangedAlice(bg, tr, cfg, inst.alice) },
		func(tr transport.Transport) error {
			got, rounds, err := RunRangedBob(bg, tr, cfg, inst.bob)
			if err != nil {
				return err
			}
			if !points.EqualMultisets(got, inst.alice) {
				t.Error("ranged sync did not converge to S_A")
			}
			if rounds < 1 {
				t.Errorf("rounds = %d", rounds)
			}
			return nil
		})
}

func TestRangedNoDifference(t *testing.T) {
	inst, err := exactInstanceForProtocol(t, 150, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := RangedConfig{Universe: testU, Seed: 13}
	runPair(t,
		func(tr transport.Transport) error { return RunRangedAlice(bg, tr, cfg, inst.alice) },
		func(tr transport.Transport) error {
			got, rounds, err := RunRangedBob(bg, tr, cfg, inst.bob)
			if err != nil {
				return err
			}
			if !points.EqualMultisets(got, inst.alice) {
				t.Error("identical sets changed under ranged sync")
			}
			// The root fingerprints match, so a single probe settles it.
			if rounds != 1 {
				t.Errorf("identical sets took %d rounds, want 1", rounds)
			}
			return nil
		})
}

func TestRangedEmptySides(t *testing.T) {
	alice := []points.Point{{1, 2}, {3, 4}, {5, 6}}
	cfg := RangedConfig{Universe: testU, Seed: 3}
	runPair(t,
		func(tr transport.Transport) error { return RunRangedAlice(bg, tr, cfg, alice) },
		func(tr transport.Transport) error {
			got, _, err := RunRangedBob(bg, tr, cfg, nil)
			if err != nil {
				return err
			}
			if !points.EqualMultisets(got, alice) {
				t.Error("empty bob did not adopt alice's set")
			}
			return nil
		})
	runPair(t,
		func(tr transport.Transport) error { return RunRangedAlice(bg, tr, cfg, nil) },
		func(tr transport.Transport) error {
			got, _, err := RunRangedBob(bg, tr, cfg, alice)
			if err != nil {
				return err
			}
			if len(got) != 0 {
				t.Errorf("bob kept %d points alice does not hold", len(got))
			}
			return nil
		})
}

// TestRangedDuplicateMultiset: occurrence-indexed keys give the ranged
// path exact multiset semantics.
func TestRangedDuplicateMultiset(t *testing.T) {
	base := points.Point{17, 23}
	var bob []points.Point
	for i := 0; i < 3; i++ {
		bob = append(bob, base.Clone())
	}
	alice := points.Clone(bob)
	alice = append(alice, base.Clone(), base.Clone()) // two extra occurrences

	cfg := RangedConfig{Universe: testU, Seed: 21}
	runPair(t,
		func(tr transport.Transport) error { return RunRangedAlice(bg, tr, cfg, alice) },
		func(tr transport.Transport) error {
			got, _, err := RunRangedBob(bg, tr, cfg, bob)
			if err != nil {
				return err
			}
			if !points.EqualMultisets(got, alice) {
				t.Errorf("got %d points, want %d identical copies", len(got), len(alice))
			}
			return nil
		})

	// And the converse direction: bob holds extra occurrences to drop.
	runPair(t,
		func(tr transport.Transport) error { return RunRangedAlice(bg, tr, cfg, bob) },
		func(tr transport.Transport) error {
			got, _, err := RunRangedBob(bg, tr, cfg, alice)
			if err != nil {
				return err
			}
			if !points.EqualMultisets(got, bob) {
				t.Errorf("got %d points, want %d", len(got), len(bob))
			}
			return nil
		})
}

// TestRangedSerialMatchesBatched: the Serial knob changes only latency
// shape, never the outcome, and must cost strictly more round trips on a
// spread-out difference.
func TestRangedSerialMatchesBatched(t *testing.T) {
	inst, err := exactInstanceForProtocol(t, 2000, 40)
	if err != nil {
		t.Fatal(err)
	}
	run := func(serial bool) int {
		cfg := RangedConfig{Universe: testU, Seed: 5, Serial: serial}
		var rounds int
		runPair(t,
			func(tr transport.Transport) error { return RunRangedAlice(bg, tr, cfg, inst.alice) },
			func(tr transport.Transport) error {
				got, r, err := RunRangedBob(bg, tr, cfg, inst.bob)
				if err != nil {
					return err
				}
				if !points.EqualMultisets(got, inst.alice) {
					t.Error("ranged sync diverged")
				}
				rounds = r
				return nil
			})
		return rounds
	}
	batched, serial := run(false), run(true)
	if serial <= batched {
		t.Errorf("serial rounds %d not above batched %d on a 40-point diff", serial, batched)
	}
}

// TestRangedScoped reconciles the key space as disjoint partitions, the
// per-stream unit of mux-pipelined sync, and checks the merged diff
// matches a whole-space run.
func TestRangedScoped(t *testing.T) {
	inst, err := exactInstanceForProtocol(t, 1200, 24)
	if err != nil {
		t.Fatal(err)
	}
	cfg := RangedConfig{Universe: testU, Seed: 11}
	tree, err := BuildRangeTree(cfg, inst.bob)
	if err != nil {
		t.Fatal(err)
	}
	bounds := tree.PartitionBounds(4)
	var add, rem [][]byte
	lo := []byte(nil)
	for _, hi := range append(bounds, ranges.TopBound(tree.KeyLen())) {
		scopeLo, scopeHi := lo, hi
		runPair(t,
			func(tr transport.Transport) error { return RunRangedAlice(bg, tr, cfg, inst.alice) },
			func(tr transport.Transport) error {
				a, r, _, err := RunRangedBobScoped(bg, tr, cfg, tree, scopeLo, scopeHi)
				if err != nil {
					return err
				}
				add = append(add, a...)
				rem = append(rem, r...)
				return nil
			})
		lo = hi
	}
	got, err := ApplyRangedDiff(cfg.Universe, inst.bob, add, rem)
	if err != nil {
		t.Fatal(err)
	}
	if !points.EqualMultisets(got, inst.alice) {
		t.Error("merged scoped diffs did not reconstruct S_A")
	}
}

func TestRangedConfigValidate(t *testing.T) {
	base := RangedConfig{Universe: testU, Seed: 1}
	if err := base.filled().validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	for _, bad := range []RangedConfig{
		{Universe: testU, Branch: 1, ItemLimit: 8},
		{Universe: testU, Branch: MaxRangedBranch + 1, ItemLimit: 8},
		{Universe: testU, Branch: 4, ItemLimit: MaxRangedItemLimit + 1},
		{Universe: points.Universe{Dim: 40, Delta: 4}, Branch: 4, ItemLimit: 8},
	} {
		if err := bad.validate(); err == nil {
			t.Errorf("config %+v accepted", bad)
		}
	}
}

func TestRangedParserRejections(t *testing.T) {
	const keyLen = 8
	probes := []rangeProbe{{lo: nil, hi: ranges.TopBound(keyLen), agg: ranges.Agg{Count: 3, Fp: 9}}}
	frame := appendRangeProbes(nil, probes, keyLen)
	if _, err := parseRangeProbes(frame, keyLen); err != nil {
		t.Fatalf("valid probe frame rejected: %v", err)
	}
	for name, body := range map[string][]byte{
		"empty":          {},
		"zero probes":    appendRangeProbes(nil, nil, keyLen),
		"trailing":       append(append([]byte(nil), frame...), 0),
		"truncated":      frame[:len(frame)-3],
		"overlong bound": {1, keyLen + 1, 0, 0, 0, 0, 0, 0, 0, 0, 0},
		"empty range":    appendRangeProbes(nil, []rangeProbe{{lo: []byte{5}, hi: []byte{5}}}, keyLen),
		"huge count":     {0xff, 0xff, 0xff, 0x7f},
	} {
		if _, err := parseRangeProbes(body, keyLen); err == nil {
			t.Errorf("probe frame %q accepted", name)
		}
	}

	entries := []rangeReplyEntry{
		{kind: rangeEqual},
		{kind: rangeSplit, bounds: [][]byte{{3}}, aggs: []ranges.Agg{{Count: 1, Fp: 2}, {Count: 3, Fp: 4}}},
		{kind: rangeItemsPending},
	}
	reply := appendRangeReply(nil, entries, keyLen)
	got, err := parseRangeReply(reply, keyLen)
	if err != nil {
		t.Fatalf("valid reply rejected: %v", err)
	}
	if len(got) != 3 || got[1].kind != rangeSplit || len(got[1].aggs) != 2 {
		t.Fatalf("reply roundtrip mismatch: %+v", got)
	}
	for name, body := range map[string][]byte{
		"unknown kind": {1, 9},
		"split of one": {1, rangeSplit, 1},
		"truncated":    reply[:len(reply)-2],
		"trailing":     append(append([]byte(nil), reply...), 0),
	} {
		if _, err := parseRangeReply(body, keyLen); err == nil {
			t.Errorf("reply frame %q accepted", name)
		}
	}

	groups := []rangeItemGroup{{probe: 2, keys: [][]byte{
		bytes.Repeat([]byte{1}, keyLen), bytes.Repeat([]byte{2}, keyLen),
	}}}
	items := appendRangeItems(nil, groups, keyLen)
	gg, err := parseRangeItems(items, keyLen)
	if err != nil {
		t.Fatalf("valid items rejected: %v", err)
	}
	if len(gg) != 1 || gg[0].probe != 2 || len(gg[0].keys) != 2 {
		t.Fatalf("items roundtrip mismatch: %+v", gg)
	}
	unsorted := appendRangeItems(nil, []rangeItemGroup{{probe: 0, keys: [][]byte{
		bytes.Repeat([]byte{2}, keyLen), bytes.Repeat([]byte{1}, keyLen),
	}}}, keyLen)
	dupIdx := appendRangeItems(nil, []rangeItemGroup{
		{probe: 1, keys: nil}, {probe: 1, keys: nil},
	}, keyLen)
	for name, body := range map[string][]byte{
		"unsorted keys":    unsorted,
		"repeated index":   dupIdx,
		"truncated":        items[:len(items)-1],
		"oversized group":  {1, 0, 0xff, 0xff, 0x7f},
		"trailing garbage": append(append([]byte(nil), items...), 7),
	} {
		if _, err := parseRangeItems(body, keyLen); err == nil {
			t.Errorf("items frame %q accepted", name)
		}
	}
}

func TestApplyRangedDiffRejections(t *testing.T) {
	bob := []points.Point{{1, 1}, {2, 2}}
	keys := ranges.Keys(testU, []points.Point{{9, 9}})
	// Removal of a key bob does not hold.
	ghost := ranges.Keys(testU, []points.Point{{5, 5}})
	if _, err := ApplyRangedDiff(testU, bob, nil, ghost); err == nil {
		t.Error("ghost removal accepted")
	}
	if _, err := ApplyRangedDiff(testU, bob, [][]byte{{1, 2}}, nil); err == nil {
		t.Error("short added key accepted")
	}
	out := ranges.EncodeKey(nil, points.Point{1, -1 & (1<<40 - 1)}, 0)
	if _, err := ApplyRangedDiff(testU, bob, [][]byte{out}, nil); err == nil {
		t.Error("out-of-universe point accepted")
	}
	got, err := ApplyRangedDiff(testU, bob, keys, ranges.Keys(testU, bob[:1]))
	if err != nil {
		t.Fatal(err)
	}
	want := []points.Point{{2, 2}, {9, 9}}
	if !points.EqualMultisets(got, want) {
		t.Errorf("diff application produced %v", got)
	}
}

// TestRangedWireAdvantage pins the headline regime at test scale: for a
// large set with a tiny difference, ranged sync must move fewer bytes
// than rateless sync (which pays the strata estimator up front) and under
// 1 KB a differing key, its own cost model: 6 003 bytes to rateless's
// 8 607 on this instance.
func TestRangedWireAdvantage(t *testing.T) {
	if testing.Short() {
		t.Skip("large instance")
	}
	u := points.Universe{Dim: 2, Delta: 1 << 20}
	n, d := 20000, 8
	alice := make([]points.Point, n)
	for i := range alice {
		alice[i] = points.Point{int64(i*7919) % u.Delta, int64(i*104729) % u.Delta}
	}
	bob := points.Clone(alice)
	for i := 0; i < d; i++ {
		bob[i*97] = points.Point{int64(1 + i), int64(2 + i)}
	}
	run := func(alice0 func(transport.Transport) error, bob0 func(transport.Transport) error) int64 {
		at, bt := transport.Pair()
		defer at.Close()
		defer bt.Close()
		done := make(chan error, 1)
		go func() { done <- alice0(at) }()
		if err := bob0(bt); err != nil {
			t.Fatalf("bob: %v", err)
		}
		if err := <-done; err != nil {
			t.Fatalf("alice: %v", err)
		}
		return bt.Stats().Total()
	}
	rcfg := RangedConfig{Universe: u, Seed: 7}
	rangedBytes := run(
		func(tr transport.Transport) error { return RunRangedAlice(bg, tr, rcfg, alice) },
		func(tr transport.Transport) error {
			got, _, err := RunRangedBob(bg, tr, rcfg, bob)
			if err != nil {
				return err
			}
			if !points.EqualMultisets(got, alice) {
				t.Error("ranged diverged")
			}
			return nil
		})
	lcfg := RatelessConfig{Universe: u, Seed: 7}
	ratelessBytes := run(
		func(tr transport.Transport) error { return RunRatelessAlice(bg, tr, lcfg, alice) },
		func(tr transport.Transport) error {
			got, err := RunRatelessBob(bg, tr, lcfg, bob)
			if err != nil {
				return err
			}
			if !points.EqualMultisets(got.SPrime, alice) {
				t.Error("rateless diverged")
			}
			return nil
		})
	if rangedBytes >= ratelessBytes {
		t.Errorf("ranged %d bytes vs rateless %d: no advantage at n=%d, %d replaced", rangedBytes, ratelessBytes, n, d)
	}
	if budget := int64(2*d) << 10; rangedBytes > budget {
		t.Errorf("ranged %d bytes for %d differing keys: above 1 KB a key (%d)", rangedBytes, 2*d, budget)
	}
	t.Logf("ranged %d bytes, rateless %d bytes (%.2fx)", rangedBytes, ratelessBytes, float64(ratelessBytes)/float64(rangedBytes))
}

// FuzzParseRangeFrame throws arbitrary bytes at all three ranged frame
// parsers; none may panic, and whatever parses must re-encode to an
// equivalent parse.
func FuzzParseRangeFrame(f *testing.F) {
	const keyLen = 12
	f.Add(appendRangeProbes(nil, []rangeProbe{
		{lo: nil, hi: ranges.TopBound(keyLen), agg: ranges.Agg{Count: 5, Fp: 0xdead}},
	}, keyLen), byte(0))
	f.Add(appendRangeReply(nil, []rangeReplyEntry{
		{kind: rangeSplit, bounds: [][]byte{{9}}, aggs: []ranges.Agg{{Count: 1}, {Count: 2, Fp: 3}}},
	}, keyLen), byte(1))
	f.Add(appendRangeItems(nil, []rangeItemGroup{
		{probe: 0, keys: [][]byte{bytes.Repeat([]byte{4}, keyLen)}},
	}, keyLen), byte(2))
	f.Fuzz(func(t *testing.T, body []byte, which byte) {
		switch which % 3 {
		case 0:
			probes, err := parseRangeProbes(body, keyLen)
			if err != nil {
				return
			}
			again, err := parseRangeProbes(appendRangeProbes(nil, probes, keyLen), keyLen)
			if err != nil || len(again) != len(probes) {
				t.Fatalf("probe re-encode drifted: %v", err)
			}
			for _, p := range probes {
				if bytes.Compare(p.lo, p.hi) >= 0 {
					t.Fatal("parser let an empty range through")
				}
			}
		case 1:
			entries, err := parseRangeReply(body, keyLen)
			if err != nil {
				return
			}
			again, err := parseRangeReply(appendRangeReply(nil, entries, keyLen), keyLen)
			if err != nil || len(again) != len(entries) {
				t.Fatalf("reply re-encode drifted: %v", err)
			}
		case 2:
			groups, err := parseRangeItems(body, keyLen)
			if err != nil {
				return
			}
			again, err := parseRangeItems(appendRangeItems(nil, groups, keyLen), keyLen)
			if err != nil || len(again) != len(groups) {
				t.Fatalf("items re-encode drifted: %v", err)
			}
			idx := make([]int, len(groups))
			for i, g := range groups {
				idx[i] = g.probe
			}
			if !sort.IntsAreSorted(idx) {
				t.Fatal("parser let unsorted group indexes through")
			}
		}
	})
}
