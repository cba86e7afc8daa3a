package warehouse

import "space"

// SyncPass is the synchronization pass: the one function that may land a
// capability change, because it ranks before the landing and adopts after.
func SyncPass(sp *space.Space, cs []space.Change) {
	for _, c := range cs {
		sp.ApplyChange(c)
	}
}

// ApplyChange re-grows a per-change loop beside the pass, so its landing is
// flagged even inside the pass's own package.
func ApplyChange(sp *space.Space, c space.Change) {
	sp.ApplyChange(c) // want `lands a capability change outside the synchronization pass`
}
