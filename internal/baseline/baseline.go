// Package baseline is the module's one in-process "run this strategy over
// a pipe" helper: Exchange drives a robustset.Session's serving and
// fetching sides against each other, exactly as two peers on a real
// connection would. The bench harness (cmd/bench) and the cross-strategy
// tests measure every strategy through it, so they compare the identical
// path a deployment runs.
package baseline

import (
	"context"
	"fmt"
	"net"

	"robustset"
)

// Exchange runs one reconciliation of strat under p: alice serves, bob
// fetches, over an in-process net.Pipe. It returns the fetching side's
// result and wire accounting (both directions, framing included). The
// stats are returned on failure too; a serve error after a successful
// fetch is reported as the exchange's error.
func Exchange(ctx context.Context, strat robustset.Strategy, p robustset.Params, alice, bob []robustset.Point) (*robustset.SyncResult, robustset.TransferStats, error) {
	sess, err := robustset.NewSession(strat, robustset.WithParams(p))
	if err != nil {
		return nil, robustset.TransferStats{}, err
	}
	c1, c2 := net.Pipe()
	defer c1.Close()
	serveErr := make(chan error, 1)
	go func() {
		_, err := sess.Serve(ctx, c1, alice)
		serveErr <- err
	}()
	res, stats, err := sess.Fetch(ctx, c2, bob)
	c2.Close() // unblocks the serving side when the fetch gave up early
	if serr := <-serveErr; err == nil && serr != nil {
		return nil, stats, fmt.Errorf("serve: %w", serr)
	}
	return res, stats, err
}
