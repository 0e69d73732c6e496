package robustset

import (
	"errors"

	"robustset/internal/core"
	"robustset/internal/iblt"
	"robustset/internal/protocol"
)

// SetRootsHook makes f run in every roots exchange between the peer's
// answer and the comparison of the local shard roots with it, until the
// returned restore runs.
func SetRootsHook(f func()) (restore func()) {
	old := rootsHook
	rootsHook = f
	return func() { rootsHook = old }
}

// ForgetHints drops every hint c keeps for dataset, so its next fetch of
// it opens cold, as its first did.
func ForgetHints(c *Client, dataset string) {
	c.mu.Lock()
	for key := range c.hints {
		if key.dataset == dataset {
			delete(c.hints, key)
		}
	}
	c.mu.Unlock()
}

// KeptCells returns the cells c keeps of the multiset its last rateless
// fetch of dataset returned: nil when it keeps none, or a fetch holds them.
func KeptCells(c *Client, dataset string) *iblt.CellPrefix {
	c.mu.Lock()
	defer c.mu.Unlock()
	if h := c.hints[hintKey{dataset, protocol.StrategyRateless}]; h.kept != nil {
		return h.kept.Prefix()
	}
	return nil
}

// ForgetKeptCells drops the cells c keeps for dataset and leaves its hint,
// so its next rateless fetch of it opens as it would have but keys its
// points.
func ForgetKeptCells(c *Client, dataset string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := hintKey{dataset, protocol.StrategyRateless}
	if h, ok := c.hints[key]; ok {
		c.hints[key] = hint{n: h.n}
	}
}

// PlantKeptTables replaces every table c keeps for dataset with pts'
// table of the level, so that c keeps another multiset's tables under the
// fingerprint of the one it reconciled.
func PlantKeptTables(c *Client, dataset string, pts []Point) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	kept := c.hints[hintKey{dataset, protocol.StrategyRobust}].tables
	if kept == nil {
		return errors.New("no kept tables")
	}
	p := kept.Params()
	for level := range kept.Tables() {
		t, err := core.BuildLevelTable(p, pts, level, p.TableCapacity)
		if err != nil {
			return err
		}
		kept.Tables()[level] = t
	}
	return nil
}

// ForgetKeptTables drops the tables c keeps for dataset and leaves its
// hint, so its next robust fetch of it opens on the same window but keys
// its points.
func ForgetKeptTables(c *Client, dataset string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := hintKey{dataset, protocol.StrategyRobust}
	if h, ok := c.hints[key]; ok {
		c.hints[key] = hint{n: h.n}
	}
}

// PlantKeptEstimates replaces the estimators and the table c keeps for
// its adaptive fetches of dataset with pts' of the same levels, sizes and
// capacity, so that c keeps another multiset's under the fingerprint of
// the one it reconciled.
func PlantKeptEstimates(c *Client, dataset string, pts []Point) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	kept := c.hints[hintKey{dataset, protocol.StrategyAdaptive}].tables
	if kept == nil {
		return errors.New("no kept estimators")
	}
	v, err := core.NewView(kept.Params(), pts)
	if err != nil {
		return err
	}
	ests, k := kept.Estimators()
	for level := range ests {
		if ests[level], err = v.LevelEstimator(level, k); err != nil {
			return err
		}
	}
	for level, t := range kept.Tables() {
		capacity := 1
		for iblt.RecommendedCells(capacity, t.Config().HashCount) < t.Config().Cells {
			capacity++
		}
		if kept.Tables()[level], err = v.BuildLevelTable(level, capacity); err != nil {
			return err
		}
	}
	return nil
}
