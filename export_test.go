package robustset

// ForgetRatelessHint drops the difference c remembers for dataset, so its
// next rateless fetch of it opens cold, as its first did.
func ForgetRatelessHint(c *Client, dataset string) {
	c.mu.Lock()
	delete(c.hints, dataset)
	c.mu.Unlock()
}
