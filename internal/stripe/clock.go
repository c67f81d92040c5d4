package stripe

import "slices"

// Clock is the second-chance clock a budgeted Store evicts by: one
// shard's evictable keys in a ring, and a hand. The reference bits live
// in the store's own entries, so the sweep reads them through a
// callback. The caller holds the shard's lock. The zero value is empty.
type Clock[K comparable] struct {
	ring []K
	hand int
}

// Add enters k at the end of the ring.
func (c *Clock[K]) Add(k K) { c.ring = append(c.ring, k) }

// Remove takes k out of the ring, reporting whether it was there.
func (c *Clock[K]) Remove(k K) bool {
	i := slices.Index(c.ring, k)
	if i >= 0 {
		c.removeAt(i)
	}
	return i >= 0
}

// removeAt swap-removes the i-th key: clock order is approximate anyway.
func (c *Clock[K]) removeAt(i int) {
	last := len(c.ring) - 1
	c.ring[i] = c.ring[last]
	c.ring = slices.Delete(c.ring, last, last+1) // zeroes the vacated slot
}

// Sweep runs the hand while more reports the store needs room. second
// clears a key's bit and reports whether it was set: if so the key gets a
// second chance, else it leaves the ring and goes to evict. After two
// laps whatever is left was touched during the sweep and stays.
func (c *Clock[K]) Sweep(more func() bool, second func(K) bool, evict func(K)) {
	laps := 2 * len(c.ring)
	for scanned := 0; scanned < laps && len(c.ring) > 0 && more(); scanned++ {
		if c.hand >= len(c.ring) {
			c.hand = 0
		}
		k := c.ring[c.hand]
		if second(k) {
			c.hand++
			continue
		}
		c.removeAt(c.hand)
		evict(k)
	}
}
