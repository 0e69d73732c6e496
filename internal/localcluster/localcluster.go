// Package localcluster runs an N-node robustset cluster inside one
// process: one Server per node on a loopback listener, every node
// publishing the same dataset name (plain or sharded, in memory or
// durable), and one Replicator per node pointed at all the others. It
// converges the nodes by sweeps of rounds, snapshots a node, kills one
// and restarts it on its old address from its data directory.
//
// It is the driver behind `robustsync cluster` and the bench's cluster
// and rejoin rows.
package localcluster

import (
	"cmp"
	"context"
	"fmt"
	"net"
	"path/filepath"
	"slices"

	"robustset"
	"robustset/internal/hashutil"
	"robustset/internal/points"
	"robustset/internal/workload"
)

// Config describes a cluster.
type Config struct {
	// Nodes is the number of nodes. Each starts with Base common points
	// and Extra points of its own, laid out from LayoutSeed (see layout).
	Nodes, Base, Extra int
	LayoutSeed         uint64
	// Dataset is the name every node publishes its points under.
	Dataset string
	Params  robustset.Params
	// Shards > 1 publishes the dataset in that many shards.
	Shards int
	// Dir, if set, makes the nodes durable: node i keeps its dataset in
	// Dir/node<i>, and Restart recovers it from there.
	Dir string
	// ServerOptions configure every node's Server.
	ServerOptions []robustset.ServerOption
	// Replicator, if set, returns node i's replicator options. Without
	// them, every round contacts every peer.
	Replicator func(i int) []robustset.ReplicatorOption
}

// Cluster is a running cluster. Its methods are not safe for concurrent
// use.
type Cluster struct {
	cfg   Config
	srvs  []*robustset.Server // nil for a killed node
	reps  []*robustset.Replicator
	addrs []string
}

// Start publishes each node's points, serves every node and wires the
// replicators. Each peer of a replicator is named "node<j>".
func Start(cfg Config) (*Cluster, error) {
	pts, err := layout(cfg.Params.Universe, cfg.Base, cfg.Nodes, cfg.Extra, cfg.LayoutSeed)
	if err != nil {
		return nil, err
	}
	c := &Cluster{
		cfg:   cfg,
		srvs:  make([]*robustset.Server, cfg.Nodes),
		reps:  make([]*robustset.Replicator, cfg.Nodes),
		addrs: make([]string, cfg.Nodes),
	}
	for i := range c.srvs {
		if err := c.serve(i, pts[i]); err != nil {
			c.Close()
			return nil, err
		}
	}
	for i := range c.reps {
		if err := c.replicate(i); err != nil {
			c.Close()
			return nil, err
		}
	}
	return c, nil
}

// serve listens on node i's address, or on a fresh loopback port the
// first time, and serves there a new Server that publishes pts — or, if
// durable with nothing to publish, recovers its dataset.
func (c *Cluster) serve(i int, pts []robustset.Point) error {
	ln, err := net.Listen("tcp", cmp.Or(c.addrs[i], "127.0.0.1:0"))
	if err != nil {
		return fmt.Errorf("node %d: %w", i, err)
	}
	opts := c.cfg.ServerOptions
	if c.cfg.Dir != "" {
		opts = append(slices.Clip(opts), robustset.WithServerDataDir(filepath.Join(c.cfg.Dir, fmt.Sprintf("node%d", i))))
	}
	srv := robustset.NewServer(opts...)
	switch name, p, k := c.cfg.Dataset, c.cfg.Params, c.cfg.Shards; {
	case k > 1 && c.cfg.Dir != "":
		_, err = srv.PublishShardedDurable(name, p, pts, k)
	case k > 1:
		_, err = srv.PublishSharded(name, p, pts, k)
	case c.cfg.Dir != "":
		_, err = srv.PublishDurable(name, p, pts)
	default:
		_, err = srv.Publish(name, p, pts)
	}
	if err != nil {
		ln.Close()
		srv.Close()
		return fmt.Errorf("node %d: %w", i, err)
	}
	go srv.Serve(ln)
	c.srvs[i], c.addrs[i] = srv, ln.Addr().String()
	return nil
}

// replicate builds node i's replicator against every other node.
func (c *Cluster) replicate(i int) error {
	var peers []robustset.Peer
	for j, addr := range c.addrs {
		if j != i {
			peers = append(peers, robustset.Peer{Name: fmt.Sprintf("node%d", j), Addr: addr})
		}
	}
	opts := []robustset.ReplicatorOption{robustset.WithPeerSelector(robustset.SelectRoundRobin(len(peers)))}
	if c.cfg.Replicator != nil {
		opts = append(opts, c.cfg.Replicator(i)...)
	}
	rep, err := robustset.NewReplicator(c.srvs[i], peers, opts...)
	if err != nil {
		return fmt.Errorf("node %d: %w", i, err)
	}
	c.reps[i] = rep
	return nil
}

// Replicator returns node i's Replicator, nil while the node is killed.
func (c *Cluster) Replicator(i int) *robustset.Replicator { return c.reps[i] }

// Live returns the nodes that are not killed, in order.
func (c *Cluster) Live() []int {
	var live []int
	for i, srv := range c.srvs {
		if srv != nil {
			live = append(live, i)
		}
	}
	return live
}

// Snapshot returns node i's points.
func (c *Cluster) Snapshot(i int) []robustset.Point {
	if c.cfg.Shards > 1 {
		return c.srvs[i].ShardedDataset(c.cfg.Dataset).Snapshot()
	}
	return c.srvs[i].Dataset(c.cfg.Dataset).Snapshot()
}

// Sweep totals one round on each live node.
type Sweep struct {
	Added, Errors int
	Bytes         int64
}

// Converge runs sweeps — one round on each live node, in order — until
// the live nodes hold the same multiset, at most max of them, and returns
// how many it ran. each, if set, sees every sweep before the nodes are
// compared; an error from it ends Converge.
func (c *Cluster) Converge(ctx context.Context, max int, each func(sweep int, s Sweep) error) (int, error) {
	live := c.Live()
	for sweep := 1; sweep <= max; sweep++ {
		var s Sweep
		for _, i := range live {
			st, err := c.reps[i].RunRound(ctx)
			if err != nil {
				return sweep, fmt.Errorf("node %d round: %w", i, err)
			}
			s.Added += st.Added
			s.Errors += st.Errors
			s.Bytes += st.Bytes
		}
		if each != nil {
			if err := each(sweep, s); err != nil {
				return sweep, err
			}
		}
		ref := c.Snapshot(live[0])
		if !slices.ContainsFunc(live[1:], func(i int) bool { return !robustset.EqualMultisets(ref, c.Snapshot(i)) }) {
			return sweep, nil
		}
	}
	return max, fmt.Errorf("no convergence after %d sweeps", max)
}

// Kill closes node i's replicator and server.
func (c *Cluster) Kill(i int) error {
	if c.reps[i] != nil {
		c.reps[i].Close()
	}
	err := c.srvs[i].Close()
	c.srvs[i], c.reps[i] = nil, nil
	return err
}

// Restart brings a killed durable node back on its old address, its
// dataset recovered from its data directory, with a new replicator.
func (c *Cluster) Restart(i int) error {
	if err := c.serve(i, nil); err != nil {
		return err
	}
	return c.replicate(i)
}

// Close kills every live node.
func (c *Cluster) Close() {
	for _, i := range c.Live() {
		c.Kill(i)
	}
}

// layout is the cluster workload: node i holds n common points, drawn
// in the lower half of the first coordinate, plus extra points of its
// own in the i-th of `nodes` disjoint stripes of the upper half, so the
// converged multiset holds exactly n + nodes·extra points.
func layout(u robustset.Universe, n, nodes, extra int, seed uint64) ([][]robustset.Point, error) {
	var common []robustset.Point
	if n > 0 {
		inst, err := workload.Generate(workload.Config{
			N:        n,
			Universe: points.Universe{Dim: u.Dim, Delta: u.Delta / 2},
			Seed:     seed,
		})
		if err != nil {
			return nil, err
		}
		common = inst.Bob
	}
	h := hashutil.NewHasher(hashutil.DeriveSeed(seed, "bench/cluster-extra"))
	out := make([][]robustset.Point, nodes)
	stripe := u.Delta / 2 / int64(nodes)
	for nd := range out {
		out[nd] = slices.Grow(slices.Clip(common), extra)
		base := u.Delta/2 + int64(nd)*stripe
		for j := range extra {
			p := make(robustset.Point, u.Dim)
			p[0] = base + int64(h.HashUint64(uint64(nd)<<32|uint64(j))%uint64(stripe))
			for k := 1; k < u.Dim; k++ {
				p[k] = int64(h.HashUint64(uint64(k)<<48|uint64(nd)<<32|uint64(j)) % uint64(u.Delta))
			}
			out[nd] = append(out[nd], p)
		}
	}
	return out, nil
}

// AddFresh adds count distinct points that node i does not hold, mined
// from seed, so that its multiset — a converged cluster's — grows by
// exactly count. It gives up after 64 draws per point held or wanted.
func (c *Cluster) AddFresh(i, count int, seed uint64) error {
	have := c.Snapshot(i)
	seen := make(map[string]bool, len(have)+count)
	for _, p := range have {
		seen[string(points.EncodeNew(p))] = true
	}
	u := c.cfg.Params.Universe
	h := hashutil.NewHasher(hashutil.DeriveSeed(seed, "bench/rejoin-delta"))
	fresh := make([]robustset.Point, 0, count)
	for attempt := 0; len(fresh) < count; attempt++ {
		if attempt == 64*(len(have)+count) {
			return fmt.Errorf("node %d: %d fresh points of %d found: the universe is too small", i, len(fresh), count)
		}
		p := make(robustset.Point, u.Dim)
		for j := range p {
			p[j] = int64(h.HashUint64(uint64(attempt)^uint64(j)*0x5bf03635) % uint64(u.Delta))
		}
		if enc := string(points.EncodeNew(p)); !seen[enc] {
			seen[enc] = true
			fresh = append(fresh, p)
		}
	}
	if c.cfg.Shards > 1 {
		return c.srvs[i].ShardedDataset(c.cfg.Dataset).AddBatch(fresh)
	}
	return c.srvs[i].Dataset(c.cfg.Dataset).AddBatch(fresh)
}
