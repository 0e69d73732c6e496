package protocol

import (
	"context"
	"encoding/binary"
	"errors"
	"slices"
	"testing"

	"robustset/internal/core"
	"robustset/internal/trace"
	"robustset/internal/transport"
	"robustset/internal/workload"
)

// spanAttr returns the named attribute of the first span of that name.
func spanAttr(t *testing.T, snap *trace.Snapshot, span, attr string) int64 {
	t.Helper()
	for _, sp := range snap.Spans {
		if sp.Name != span {
			continue
		}
		for _, kv := range sp.Attrs {
			if kv.K == attr {
				return kv.V
			}
		}
	}
	t.Fatalf("trace has no %s.%s", span, attr)
	return 0
}

// TestEstimateBobLazyChoice: Bob, who builds an estimator of his only
// when the level scan reads it, picks the level, estimate and capacity
// that core.ChooseLevel picks over both sides' fully built estimators —
// over 240 seeded instances whose noise puts the choice anywhere from the
// finest level to six below it — and has built no estimator coarser than
// his choice unless Alice kept him waiting, in which case he may have
// built any.
func TestEstimateBobLazyChoice(t *testing.T) {
	chosen := map[int]int{}
	for seed := uint64(1); seed <= 240; seed++ {
		inst, err := workload.Generate(workload.Config{
			N: 150, Universe: testU, Outliers: int(seed % 5),
			Noise: workload.NoiseUniform, Scale: float64(seed % 7 * 8), Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		params := core.Params{Universe: testU, Seed: seed * 31, DiffBudget: 6}
		opts := EstimateOpts{EstimatorK: 32}
		tr := trace.New("client")
		ctx := trace.NewContext(bg, tr)
		runPair(t,
			func(at transport.Transport) error { return RunEstimateAlice(bg, at, params, inst.Alice) },
			func(bt transport.Transport) error {
				_, err := RunEstimateBob(ctx, bt, params, inst.Bob, opts)
				return err
			})
		alice, err := core.LevelEstimators(params, inst.Alice, opts.EstimatorK)
		if err != nil {
			t.Fatal(err)
		}
		bob, err := core.LevelEstimators(params, inst.Bob, opts.EstimatorK)
		if err != nil {
			t.Fatal(err)
		}
		level, est, err := core.ChooseLevel(params, alice, bob, opts.filled(params).Budget)
		if err != nil {
			t.Fatal(err)
		}
		snap := tr.Snapshot()
		got := [3]int64{spanAttr(t, snap, "estimate", "level"), spanAttr(t, snap, "estimate", "est"), spanAttr(t, snap, "level_round", "capacity")}
		want := [3]int64{int64(level), int64(est), int64(int(est*1.5) + 16)}
		if got != want {
			t.Fatalf("seed %d: lazy Bob chose (level, estimate, capacity) %v, ChooseLevel over full slices %v", seed, got, want)
		}
		levels := testU.Levels() + 1
		if built := spanAttr(t, snap, "estimate", "built"); built < int64(testU.Levels()-level+1) || built > int64(levels) {
			t.Fatalf("seed %d: built %d estimators for a choice %d below the finest of %d", seed, built, testU.Levels()-level, levels)
		}
		chosen[testU.Levels()-level]++
	}
	if len(chosen) < 4 {
		t.Errorf("the instances chose only %v levels below the finest; the test wants a spread", chosen)
	}
}

// replyFirst is Bob's end of a link to a warm server as Bob sees one,
// without a clock: his estimator request returns from Send only once
// Alice's reply is in hand, so whenever he looks for the reply it is there.
type replyFirst struct {
	transport.Transport
	held [][]byte
}

func (r *replyFirst) Send(ctx context.Context, msg []byte) error {
	if err := r.Transport.Send(ctx, msg); err != nil || msg[0] != MsgEstRequest {
		return err
	}
	reply, err := r.Transport.Recv(ctx)
	if err != nil {
		return err
	}
	r.held = append(r.held, append([]byte(nil), reply...))
	return nil
}

func (r *replyFirst) Recv(ctx context.Context) ([]byte, error) {
	if len(r.held) > 0 {
		msg := r.held[0]
		r.held = r.held[1:]
		return msg, nil
	}
	return r.Transport.Recv(ctx)
}

// TestEstimateBobWarmBuildsFinestOnly: when Alice's estimators are there
// as soon as Bob looks and his finest level is affordable — here the two
// sets are equal — he builds that level's estimator and at most one more,
// not all thirteen. How many he builds past the first is how long the
// scheduler kept his receive from saying the answer was in, so the bound
// is held on the median of 21 sessions and not on each: an eager Bob
// builds thirteen every time.
func TestEstimateBobWarmBuildsFinestOnly(t *testing.T) {
	inst := testInstance(t, 2000, 0)
	params := core.Params{Universe: testU, Seed: 9, DiffBudget: 4}
	var built []int64
	for i := 0; i < 21; i++ {
		tr := trace.New("client")
		ctx := trace.NewContext(bg, tr)
		runPair(t,
			func(at transport.Transport) error { return RunEstimateAlice(bg, at, params, inst.Alice) },
			func(bt transport.Transport) error {
				res, err := RunEstimateBob(ctx, &replyFirst{Transport: bt}, params, inst.Alice, EstimateOpts{})
				if err == nil && res.Level != testU.Levels() {
					t.Errorf("equal sets reconciled at level %d, want the finest", res.Level)
				}
				return err
			})
		built = append(built, spanAttr(t, tr.Snapshot(), "estimate", "built"))
	}
	slices.Sort(built)
	if built[0] != 1 || built[len(built)/2] > 2 {
		t.Fatalf("warm sessions with an affordable finest level built %v of Bob's %d estimators, want 1 at best and at most 2 in the median",
			built, testU.Levels()+1)
	}
}

// TestEstimateAliceRefusesLevelOutsideRange: the stateless serving side
// builds no table for a level its parameters leave out, though the
// universe has it — the answer is core.ErrLevelOutOfRange, relayed.
func TestEstimateAliceRefusesLevelOutsideRange(t *testing.T) {
	inst := testInstance(t, 100, 2)
	params := core.Params{Universe: testU, Seed: 1, DiffBudget: 2}.WithLevels(3, 8)
	for _, level := range []int{0, 2, 9, testU.Levels(), testU.Levels() + 1, 1<<16 - 1} {
		var relayed error
		err := driveAlice(t,
			func(tr transport.Transport) error { return RunEstimateAlice(bg, tr, params, inst.Alice) },
			func(tr transport.Transport) {
				send(bg, tr, MsgEstRequest, []byte{64, 0, 0, 0})
				if _, err := recvExpect(bg, tr, MsgEstimators); err != nil {
					t.Error(err)
					return
				}
				req := binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint16(nil, uint16(level)), 32)
				send(bg, tr, MsgLevelRequest, req)
				_, _, relayed = recv(bg, tr)
			})
		if !errors.Is(err, core.ErrLevelOutOfRange) {
			t.Errorf("level %d outside [3,8]: Alice returned %v, want core.ErrLevelOutOfRange", level, err)
		}
		var re *RemoteError
		if !errors.As(relayed, &re) || re.Reason != err.Error() {
			t.Errorf("level %d: Bob got %v, want Alice's refusal relayed", level, relayed)
		}
	}
	// The levels inside the range are all served.
	for level := 3; level <= 8; level++ {
		err := driveAlice(t,
			func(tr transport.Transport) error { return RunEstimateAlice(bg, tr, params, inst.Alice) },
			func(tr transport.Transport) {
				send(bg, tr, MsgEstRequest, []byte{64, 0, 0, 0})
				recvExpect(bg, tr, MsgEstimators)
				req := binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint16(nil, uint16(level)), 32)
				send(bg, tr, MsgLevelRequest, req)
				if _, err := recvExpect(bg, tr, MsgLevelTable); err != nil {
					t.Errorf("level %d: %v", level, err)
				}
				send(bg, tr, MsgDone, nil)
			})
		if err != nil {
			t.Errorf("level %d inside [3,8]: %v", level, err)
		}
	}
}
