package protocol

import (
	"context"
	"encoding/binary"
	"errors"
	"runtime"
	"slices"
	"testing"

	"robustset/internal/core"
	"robustset/internal/iblt"
	"robustset/internal/points"
	"robustset/internal/transport"
	"robustset/internal/workload"
)

var testU = points.Universe{Dim: 2, Delta: 1 << 12}

func testInstance(t *testing.T, n, k int) *workload.Instance {
	t.Helper()
	inst, err := workload.Generate(workload.Config{
		N: n, Universe: testU, Outliers: k, Noise: workload.NoiseUniform, Scale: 2, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func TestBlobListRoundtrip(t *testing.T) {
	blobs := [][]byte{[]byte("a"), {}, []byte("hello world"), {0, 1, 2}}
	enc := appendBlobList(nil, blobs)
	got, err := parseBlobList(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(blobs) {
		t.Fatalf("got %d blobs, want %d", len(got), len(blobs))
	}
	for i := range blobs {
		if string(got[i]) != string(blobs[i]) {
			t.Fatalf("blob %d: %q != %q", i, got[i], blobs[i])
		}
	}
}

func TestBlobListCorruption(t *testing.T) {
	blobs := [][]byte{[]byte("abc"), []byte("defg")}
	enc := appendBlobList(nil, blobs)
	cases := map[string][]byte{
		"empty":        {},
		"short header": enc[:2],
		"truncated":    enc[:len(enc)-1],
		"trailing":     append(append([]byte{}, enc...), 1),
		"huge count":   binary.LittleEndian.AppendUint32(nil, 1<<30),
	}
	for name, b := range cases {
		if _, err := parseBlobList(b); err == nil {
			t.Errorf("%s: corrupt blob list accepted", name)
		}
	}
}

func TestRemoteErrorSurfaces(t *testing.T) {
	at, bt := transport.Pair()
	defer at.Close()
	defer bt.Close()
	go send(bg, at, MsgError, []byte("boom"))
	_, _, err := recv(bg, bt)
	var re *RemoteError
	if !errors.As(err, &re) || re.Reason != "boom" {
		t.Fatalf("want RemoteError(boom), got %v", err)
	}
	if re.Error() == "" {
		t.Error("empty error text")
	}
}

func TestRecvExpectWrongType(t *testing.T) {
	at, bt := transport.Pair()
	defer at.Close()
	defer bt.Close()
	go send(bg, at, MsgSet, []byte("x"))
	_, err := recvExpect(bg, bt, MsgSketch)
	if !errors.Is(err, ErrUnexpectedMessage) {
		t.Fatalf("want ErrUnexpectedMessage, got %v", err)
	}
}

func TestEmptyFrameRejected(t *testing.T) {
	at, bt := transport.Pair()
	defer at.Close()
	defer bt.Close()
	go at.Send(bg, nil)
	if _, _, err := recv(bg, bt); err == nil {
		t.Fatal("empty frame accepted")
	}
}

// driveAlice runs an Alice session against a scripted Bob side.
func driveAlice(t *testing.T, alice func(transport.Transport) error, script func(transport.Transport)) error {
	t.Helper()
	at, bt := transport.Pair()
	defer at.Close()
	defer bt.Close()
	done := make(chan error, 1)
	go func() { done <- alice(at) }()
	script(bt)
	return <-done
}

func TestEstimateAliceRejectsMalformedRequests(t *testing.T) {
	inst := testInstance(t, 50, 2)
	params := core.Params{Universe: testU, Seed: 1, DiffBudget: 2}.WithLevels(3, 8)
	alice := func(tr transport.Transport) error { return RunEstimateAlice(bg, tr, params, inst.Alice) }
	valid := estRequestBody(64, 8, 1) // the finest level alone

	// Truncated estimator request body.
	err := driveAlice(t, alice, func(tr transport.Transport) {
		send(bg, tr, MsgEstRequest, []byte{1, 2})
	})
	if err == nil {
		t.Error("truncated estimator request accepted")
	}
	// Estimator k out of range.
	err = driveAlice(t, alice, func(tr transport.Transport) {
		send(bg, tr, MsgEstRequest, estRequestBody(0, 8, 1))
	})
	if err == nil {
		t.Error("estK=0 accepted")
	}
	// Valid request, then a bogus capacity.
	err = driveAlice(t, alice, func(tr transport.Transport) {
		send(bg, tr, MsgEstRequest, valid)
		if _, err := recvExpect(bg, tr, MsgEstimators); err != nil {
			t.Error(err)
			return
		}
		send(bg, tr, MsgLevelRequest, []byte{0, 0, 0, 0, 0, 0}) // capacity 0
	})
	if err == nil {
		t.Error("capacity 0 accepted")
	}
	// Valid request, then an unexpected message type.
	err = driveAlice(t, alice, func(tr transport.Transport) {
		send(bg, tr, MsgEstRequest, valid)
		if _, err := recvExpect(bg, tr, MsgEstimators); err != nil {
			t.Error(err)
			return
		}
		send(bg, tr, MsgSet, nil)
	})
	if !errors.Is(err, ErrUnexpectedMessage) {
		t.Errorf("unexpected message not rejected: %v", err)
	}
	// Clean shutdown path.
	err = driveAlice(t, alice, func(tr transport.Transport) {
		send(bg, tr, MsgEstRequest, valid)
		if _, err := recvExpect(bg, tr, MsgEstimators); err != nil {
			t.Error(err)
			return
		}
		send(bg, tr, MsgDone, nil)
	})
	if err != nil {
		t.Errorf("clean shutdown errored: %v", err)
	}
}

func TestPushBobRejectsGarbageSketch(t *testing.T) {
	at, bt := transport.Pair()
	defer at.Close()
	defer bt.Close()
	go send(bg, at, MsgSketch, []byte("definitely not a sketch"))
	if _, err := RunPushBob(bg, bt, nil); err == nil {
		t.Fatal("garbage sketch accepted")
	}
}

func TestEstimateBobRejectsGarbageEstimators(t *testing.T) {
	inst := testInstance(t, 50, 2)
	params := core.Params{Universe: testU, Seed: 1, DiffBudget: 2}
	at, bt := transport.Pair()
	defer at.Close()
	defer bt.Close()
	go func() {
		if _, err := recvExpect(bg, at, MsgEstRequest); err != nil {
			return
		}
		send(bg, at, MsgEstimators, appendBlobList(nil, [][]byte{[]byte("junk")}))
	}()
	if _, err := RunEstimateBob(bg, bt, params, inst.Bob, EstimateOpts{}); err == nil {
		t.Fatal("garbage estimators accepted")
	}
}

// TestEstimateBobRejectsMismatchedLevelTable plays an Alice who answers
// the estimator round honestly and then serves a level table that is not
// the one Bob asked for. A table of another key length used to panic Bob
// inside iblt's insert; every shape mismatch must now end the session
// with core.ErrLevelTableMismatch, at once rather than after retries.
func TestEstimateBobRejectsMismatchedLevelTable(t *testing.T) {
	inst := testInstance(t, 200, 3)
	params := core.Params{Universe: testU, Seed: 1, DiffBudget: 4}
	wide := core.Params{Universe: points.Universe{Dim: 3, Delta: testU.Delta}, Seed: 1, DiffBudget: 4}
	lies := map[string]func(level, capacity int) (*iblt.Table, error){
		"other key length": func(level, capacity int) (*iblt.Table, error) {
			return core.BuildLevelTable(wide, []points.Point{{1, 2, 3}}, level, capacity)
		},
		"other capacity": func(level, capacity int) (*iblt.Table, error) {
			return core.BuildLevelTable(params, inst.Alice, level, 4*capacity)
		},
		"other level": func(level, capacity int) (*iblt.Table, error) {
			return core.BuildLevelTable(params, inst.Alice, (level+1)%testU.Levels(), capacity)
		},
	}
	for name, lie := range lies {
		t.Run(name, func(t *testing.T) {
			at, bt := transport.Pair()
			defer at.Close()
			defer bt.Close()
			rounds := make(chan int, 1)
			go func() {
				n := 0
				defer func() { rounds <- n }()
				RunEstimateServed(bg, at, func(k int) (*EstimateOpening, error) {
					o, err := OpenEstimates(params, inst.Alice, k)
					if err != nil {
						return nil, err
					}
					o.LevelTable = func(level, capacity int) ([]byte, bool, error) {
						n++
						tbl, err := lie(level, capacity)
						if err != nil {
							return nil, false, err
						}
						blob, err := tbl.MarshalBinary()
						return blob, false, err
					}
					return o, nil
				})
			}()
			_, err := RunEstimateBob(bg, bt, params, inst.Bob, EstimateOpts{})
			if !errors.Is(err, core.ErrLevelTableMismatch) {
				t.Fatalf("lying Alice: %v, want core.ErrLevelTableMismatch", err)
			}
			if n := <-rounds; n != 1 {
				t.Errorf("Bob asked for %d level tables; a mismatch is not a stalled decode and must not be retried", n)
			}
		})
	}
}

func TestApplyExactDiffErrors(t *testing.T) {
	bob := []points.Point{{1, 2}, {3, 4}}
	// Key of the wrong length.
	shortNeg := diffWith(nil, [][]byte{{1, 2, 3}})
	if _, err := applyExactDiff(testU, bob, &shortNeg); err == nil {
		t.Error("short neg key accepted")
	}
	shortPos := diffWith([][]byte{{1, 2, 3}}, nil)
	if _, err := applyExactDiff(testU, bob, &shortPos); err == nil {
		t.Error("short pos key accepted")
	}
	// Bob-only key naming a point Bob does not hold.
	ghost := append(points.EncodeNew(points.Point{9, 9}), 0, 0, 0, 0)
	ghostDiff := diffWith(nil, [][]byte{ghost})
	if _, err := applyExactDiff(testU, bob, &ghostDiff); err == nil {
		t.Error("ghost removal accepted")
	}
	// A Bob-only key named twice must not drop (or size for) two points.
	rem := append(points.EncodeNew(points.Point{1, 2}), 0, 0, 0, 0)
	twice := diffWith(nil, [][]byte{rem, rem})
	if _, err := applyExactDiff(testU, bob, &twice); err == nil {
		t.Error("doubled removal accepted")
	}
	// Happy path: add one, remove one.
	add := append(points.EncodeNew(points.Point{7, 7}), 0, 0, 0, 0)
	d := diffWith([][]byte{add}, [][]byte{rem})
	got, err := applyExactDiff(testU, bob, &d)
	if err != nil {
		t.Fatal(err)
	}
	want := []points.Point{{3, 4}, {7, 7}}
	if !points.EqualMultisets(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	// The result is a deep copy: writing to it leaves Bob's points alone.
	got[0][0] = 99
	if bob[1][0] != 3 {
		t.Fatal("result aliases Bob's points")
	}

	// Removals name occurrences: Bob's copies of a point are numbered in
	// slice order, a removal must name his top ones, and it drops his last
	// copies. A doubled removal, one of a point he lacks, and one of a copy
	// he holds but not at the top all fail with ErrNotLocal.
	dup := []points.Point{{1, 2}, {5, 5}, {1, 2}, {3, 4}, {1, 2}}
	occ := func(p points.Point, i uint32) []byte {
		return binary.LittleEndian.AppendUint32(points.EncodeNew(p), i)
	}
	for _, c := range []struct {
		what string
		neg  [][]byte
		want []points.Point // nil: must fail
	}{
		{"top two of three", [][]byte{occ(points.Point{1, 2}, 2), occ(points.Point{1, 2}, 1)},
			[]points.Point{{1, 2}, {5, 5}, {3, 4}}},
		{"every copy", [][]byte{occ(points.Point{1, 2}, 0), occ(points.Point{1, 2}, 2), occ(points.Point{1, 2}, 1)},
			[]points.Point{{5, 5}, {3, 4}}},
		{"doubled", [][]byte{occ(points.Point{1, 2}, 2), occ(points.Point{1, 2}, 2)}, nil},
		{"absent point", [][]byte{occ(points.Point{9, 9}, 0)}, nil},
		{"absent occurrence", [][]byte{occ(points.Point{5, 5}, 1)}, nil},
		{"not the top copy", [][]byte{occ(points.Point{1, 2}, 0)}, nil},
		{"not the top two", [][]byte{occ(points.Point{1, 2}, 2), occ(points.Point{1, 2}, 0)}, nil},
	} {
		d := diffWith(nil, c.neg)
		got, err := applyExactDiff(testU, dup, &d)
		switch {
		case c.want == nil && !errors.Is(err, ErrNotLocal):
			t.Errorf("%s: %v, want ErrNotLocal", c.what, err)
		case c.want != nil && (err != nil || !slices.EqualFunc(got, c.want, points.Point.Equal)):
			t.Errorf("%s: %v, %v; want %v", c.what, got, err, c.want)
		}
	}
}

// TestApplyExactDiffAllocCeiling holds the apply of a 64-key difference
// over 20 000 points (the churn workload's shape) to S'_B's own bytes —
// its two arrays, a header and d coordinates for each kept and added
// point, which the allocator hands out in whole 8 KiB pages — plus 8 KiB
// for the lookup of the named points.
func TestApplyExactDiffAllocCeiling(t *testing.T) {
	u := points.Universe{Dim: 2, Delta: 1 << 20}
	inst, err := workload.Generate(workload.Config{N: 20000, Universe: u, Noise: workload.NoiseNone, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	bob := inst.Bob
	keys := points.OccurrenceKeys(bob, u.Dim)
	var d iblt.Diff
	for i := range 32 {
		d.Neg = append(d.Neg, keys[i*601])
		d.Pos = append(d.Pos, binary.LittleEndian.AppendUint32(points.EncodeNew(points.Point{int64(i), 7}), 0))
	}
	var got []points.Point
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range 5 {
		if got, err = applyExactDiff(u, bob, &d); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	rows := len(bob) - len(d.Neg) + len(d.Pos)
	if len(got) != rows || cap(got) != rows {
		t.Fatalf("S'_B holds %d points of capacity %d, want %d", len(got), cap(got), rows)
	}
	pages := func(b int) uint64 { return uint64(b+8191) &^ 8191 }
	own, each := pages(rows*24)+pages(rows*8*u.Dim), (after.TotalAlloc-before.TotalAlloc)/5
	if each > own+8<<10 {
		t.Errorf("the apply allocates %d B, over S'_B's %d B + 8 KiB", each, own)
	}
}

func diffWith(pos, neg [][]byte) (d iblt.Diff) {
	d.Pos, d.Neg = pos, neg
	return d
}

// bg is the do-not-cancel context used throughout the protocol tests.
var bg = context.Background()
