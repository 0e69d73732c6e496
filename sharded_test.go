package robustset_test

import (
	"errors"
	"strings"
	"testing"

	"robustset"
)

// TestShardedDatasetRoutingAndBatches asserts sharded publication
// preserves the multiset, routes mutations to stable shards, and batch
// mutations agree with per-point ones.
func TestShardedDatasetRouting(t *testing.T) {
	params := robustset.Params{Universe: testU, Seed: 77, DiffBudget: 8}
	alice, _ := deterministicPair(17, 400, 0, 0)
	srv := robustset.NewServer()
	defer srv.Close()
	sd, err := srv.PublishSharded("pts", params, alice, 8)
	if err != nil {
		t.Fatal(err)
	}
	if sd.NumShards() != 8 || srv.ShardedDataset("pts") != sd {
		t.Fatalf("sharded registration broken: %d shards", sd.NumShards())
	}
	if got := len(srv.Datasets()); got != 8 {
		t.Fatalf("server publishes %d datasets, want 8 shards", got)
	}
	if sd.Size() != len(alice) {
		t.Fatalf("Size() = %d, want %d", sd.Size(), len(alice))
	}
	if !robustset.EqualMultisets(sd.Snapshot(), alice) {
		t.Fatal("sharded snapshot does not equal the published multiset")
	}
	// Every point must live in the shard the router names.
	for _, pt := range alice[:50] {
		owner := sd.Shard(pt)
		found := false
		for _, cand := range owner.Snapshot() {
			if cand.Equal(pt) {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("point %v not in its routed shard %q", pt, owner.Name())
		}
	}

	// Batch mutations: add a batch, remove it again; the multiset must
	// round-trip and sizes stay consistent.
	batch := []robustset.Point{{11, 22}, {33, 44}, {55, 66}, {11, 22}}
	if err := sd.AddBatch(batch); err != nil {
		t.Fatal(err)
	}
	if sd.Size() != len(alice)+len(batch) {
		t.Fatalf("size %d after AddBatch, want %d", sd.Size(), len(alice)+len(batch))
	}
	if err := sd.RemoveBatch(batch); err != nil {
		t.Fatal(err)
	}
	if !robustset.EqualMultisets(sd.Snapshot(), alice) {
		t.Fatal("Add/RemoveBatch did not round-trip the sharded multiset")
	}

	// The base name is reserved: publishing it again in any form fails.
	if _, err := srv.Publish("pts", params, nil); err == nil {
		t.Error("base name re-published as plain dataset")
	}
	if _, err := srv.PublishSharded("pts", params, nil, 4); err == nil {
		t.Error("base name re-published as sharded dataset")
	}
}

// TestDatasetBatchSemantics pins the single-lock batch operations to the
// per-point ones, including mid-batch failure behaviour.
func TestDatasetBatchSemantics(t *testing.T) {
	params := robustset.Params{Universe: testU, Seed: 3, DiffBudget: 4}
	alice, _ := deterministicPair(23, 100, 0, 0)
	srv := robustset.NewServer()
	defer srv.Close()
	d, err := srv.Publish("d", params, alice)
	if err != nil {
		t.Fatal(err)
	}
	batch := []robustset.Point{{1, 2}, {3, 4}, {5, 6}}
	if err := d.AddBatch(batch); err != nil {
		t.Fatal(err)
	}
	if d.Size() != len(alice)+3 {
		t.Fatalf("size %d after AddBatch", d.Size())
	}
	// RemoveBatch with a missing point mid-batch is all-or-nothing: the
	// error names ErrNotPresent and the position, and nothing is removed —
	// the batch validates before it is logged and applied.
	err = d.RemoveBatch([]robustset.Point{{1, 2}, {999, 999}, {5, 6}})
	if !errors.Is(err, robustset.ErrNotPresent) {
		t.Fatalf("RemoveBatch error = %v, want ErrNotPresent", err)
	}
	if !strings.Contains(err.Error(), "point 1 of 3") {
		t.Errorf("batch error does not locate the failure: %v", err)
	}
	if d.Size() != len(alice)+3 {
		t.Errorf("size %d after rejected RemoveBatch, want %d (nothing applied)", d.Size(), len(alice)+3)
	}
	// A batch removing more occurrences than the dataset holds is caught
	// by the multiset-aware tally, even when each point exists.
	if err := d.RemoveBatch([]robustset.Point{{1, 2}, {1, 2}}); !errors.Is(err, robustset.ErrNotPresent) {
		t.Fatalf("over-removal of a present point = %v, want ErrNotPresent", err)
	}
	// The error names the first failing point in batch order, whichever
	// point it is an occurrence of.
	err = d.RemoveBatch([]robustset.Point{{5, 6}, {1, 2}, {5, 6}, {999, 999}})
	if !errors.Is(err, robustset.ErrNotPresent) || !strings.Contains(err.Error(), "point 2 of 4") {
		t.Errorf("over-removal before a missing point = %v, want point 2 of 4", err)
	}
	if d.Size() != len(alice)+3 {
		t.Errorf("size %d after rejected over-removal, want %d", d.Size(), len(alice)+3)
	}
	// AddBatch with an out-of-universe point rejects the whole batch too.
	err = d.AddBatch([]robustset.Point{{7, 8}, {-1, 0}})
	if err == nil {
		t.Fatal("AddBatch accepted an out-of-universe point")
	}
	if !strings.Contains(err.Error(), "nothing applied") {
		t.Errorf("batch error does not state all-or-nothing: %v", err)
	}
	if d.Size() != len(alice)+3 {
		t.Errorf("size %d after rejected AddBatch, want %d", d.Size(), len(alice)+3)
	}
	// The valid prefix of a rejected batch can be applied on its own.
	if err := d.RemoveBatch([]robustset.Point{{1, 2}, {5, 6}}); err != nil {
		t.Fatal(err)
	}
	if d.Size() != len(alice)+1 {
		t.Errorf("size %d after valid RemoveBatch, want %d", d.Size(), len(alice)+1)
	}
}

// TestServerUnpublish covers runtime retirement: the catalog entry
// disappears, retained handles reject mutations with ErrUnknownDataset,
// new sessions are rejected, and the name is free for re-publication.
func TestServerUnpublish(t *testing.T) {
	params := robustset.Params{Universe: testU, Seed: 41, DiffBudget: 8}
	alice, bob := deterministicPair(31, 150, 4, 2)
	srv := robustset.NewServer(WithTestLogger(t))
	d, err := srv.Publish("gone", params, alice)
	if err != nil {
		t.Fatal(err)
	}
	addr := startServer(t, srv)

	if err := srv.Unpublish("missing"); !errors.Is(err, robustset.ErrUnknownDataset) {
		t.Fatalf("Unpublish of unknown name: %v", err)
	}
	if err := srv.Unpublish("gone"); err != nil {
		t.Fatal(err)
	}
	if srv.Dataset("gone") != nil || len(srv.Datasets()) != 0 {
		t.Fatal("dataset still in the catalog after Unpublish")
	}
	// The retained handle rejects mutations.
	if err := d.Add(robustset.Point{1, 1}); !errors.Is(err, robustset.ErrUnknownDataset) {
		t.Errorf("Add on retired dataset: %v", err)
	}
	if err := d.AddBatch([]robustset.Point{{1, 1}}); !errors.Is(err, robustset.ErrUnknownDataset) {
		t.Errorf("AddBatch on retired dataset: %v", err)
	}
	if err := d.RemoveBatch([]robustset.Point{alice[0]}); !errors.Is(err, robustset.ErrUnknownDataset) {
		t.Errorf("RemoveBatch on retired dataset: %v", err)
	}
	// A new session naming the dataset is rejected at the handshake.
	if _, _, err := fetchOnce(t, addr.String(), "gone", robustset.Robust{}, bob); err == nil {
		t.Error("fetch of unpublished dataset succeeded")
	}
	// The name is free again.
	if _, err := srv.Publish("gone", params, alice); err != nil {
		t.Errorf("re-publish after Unpublish: %v", err)
	}
}

// TestServerUnpublishSharded retires a sharded dataset by base name: all
// shard datasets disappear and retained shard handles reject mutations.
func TestServerUnpublishSharded(t *testing.T) {
	params := robustset.Params{Universe: testU, Seed: 43, DiffBudget: 8}
	alice, _ := deterministicPair(37, 200, 0, 0)
	srv := robustset.NewServer()
	defer srv.Close()
	sd, err := srv.PublishSharded("s", params, alice, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Unpublish("s"); err != nil {
		t.Fatal(err)
	}
	if len(srv.Datasets()) != 0 || srv.ShardedDataset("s") != nil {
		t.Fatal("shards survive Unpublish of the base name")
	}
	if err := sd.Add(robustset.Point{5, 5}); !errors.Is(err, robustset.ErrUnknownDataset) {
		t.Errorf("Add on retired sharded dataset: %v", err)
	}
}

// TestServerUnpublishRejectsIndividualShard asserts a single shard of a
// sharded dataset cannot be retired on its own — that would leave the
// parent half-dead — while an unrelated plain dataset that merely looks
// like a shard name stays unpublishable.
func TestServerUnpublishRejectsIndividualShard(t *testing.T) {
	params := robustset.Params{Universe: testU, Seed: 61, DiffBudget: 8}
	alice, _ := deterministicPair(59, 100, 0, 0)
	srv := robustset.NewServer()
	defer srv.Close()
	sd, err := srv.PublishSharded("s", params, alice, 4)
	if err != nil {
		t.Fatal(err)
	}
	shardName := sd.Shards()[0].Name()
	if err := srv.Unpublish(shardName); err == nil {
		t.Fatalf("Unpublish(%q) of an individual shard succeeded", shardName)
	}
	if srv.Dataset(shardName) == nil {
		t.Fatal("rejected shard unpublish still removed the shard")
	}
	if err := sd.Add(robustset.Point{1, 1}); err != nil {
		t.Errorf("sharded dataset unusable after rejected shard unpublish: %v", err)
	}
	// A plain dataset whose name merely parses like a shard of a
	// non-sharded base is a normal dataset.
	if _, err := srv.Publish("plain~0.2", params, alice); err != nil {
		t.Fatal(err)
	}
	if err := srv.Unpublish("plain~0.2"); err != nil {
		t.Errorf("Unpublish of shard-shaped plain dataset: %v", err)
	}
}
