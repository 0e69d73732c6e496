package robustset

import (
	"errors"
	"testing"

	"robustset/internal/protocol"
)

// TestRetiredDatasetServingRejected pins the in-flight retirement
// contract at the serving layer: a session that resolved its dataset
// just before an Unpublish hits servePoints/sketchBlob next, and both
// must reject with ErrUnknownDataset once the dataset is retired. (The
// end-to-end handshake rejection is covered in sharded_test.go; this
// white-box test makes the narrower race deterministic.)
func TestRetiredDatasetServingRejected(t *testing.T) {
	params := Params{Universe: Universe{Dim: 2, Delta: 1 << 12}, Seed: 5, DiffBudget: 4}
	srv := NewServer()
	defer srv.Close()
	d, err := srv.Publish("d", params, []Point{{1, 2}, {3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.servePoints(); err != nil {
		t.Fatalf("servePoints before retirement: %v", err)
	}
	if _, err := d.sketchBlob(); err != nil {
		t.Fatalf("sketchBlob before retirement: %v", err)
	}
	if err := srv.Unpublish("d"); err != nil {
		t.Fatal(err)
	}
	if _, err := d.servePoints(); !errors.Is(err, ErrUnknownDataset) {
		t.Errorf("servePoints on retired dataset: %v, want ErrUnknownDataset", err)
	}
	if _, err := d.sketchBlob(); !errors.Is(err, ErrUnknownDataset) {
		t.Errorf("sketchBlob on retired dataset: %v, want ErrUnknownDataset", err)
	}
	if pts := d.Snapshot(); len(pts) != 2 {
		t.Errorf("Snapshot after retirement returned %d points; reads stay usable", len(pts))
	}
}

// TestStrategyFromCodeExactConfigLength: every strategy code carries a
// hello config of one exact length; a shorter or longer blob — e.g. the
// retired {q, feature} pair on the exact-IBLT code — is refused rather
// than served something the peer did not ask for, and so is an unknown
// code. The accepted blob is what the strategy's own helloConfig writes.
func TestStrategyFromCodeExactConfigLength(t *testing.T) {
	for _, strat := range Strategies() {
		code, n := strat.code(), len(strat.helloConfig())
		for _, size := range []int{n - 1, n, n + 1} {
			if size < 0 {
				continue
			}
			got, err := strategyFromCode(code, make([]byte, size))
			switch {
			case size != n && err == nil:
				t.Errorf("%s (code %d): %d-byte config accepted, want exactly %d", strat.Name(), code, size, n)
			case size == n && err != nil:
				t.Errorf("%s (code %d): its own %d-byte config refused: %v", strat.Name(), code, n, err)
			case size == n && got.Name() != strat.Name():
				t.Errorf("code %d decoded as %s, want %s", code, got.Name(), strat.Name())
			}
		}
	}
	if _, err := strategyFromCode(protocol.StrategyExactIBLT, []byte{4, 1}); err == nil {
		t.Error("the retired {q, feature} hello on the exact-IBLT code accepted")
	}
	if _, err := strategyFromCode(0x7e, nil); err == nil {
		t.Error("unknown strategy code accepted")
	}
}
