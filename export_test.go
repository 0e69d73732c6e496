package robustset

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
