// Command cmd shows the main-package exemption: entry points own their
// lifecycle, so context.Background() is legitimate here. Landing a change is
// not exempt: a command is as much a second driver as a library would be.
package main

import (
	"context"

	"space"
)

func main() {
	_ = context.Background() // roots the process context; no finding
	var sp space.Space
	sp.ApplyChange(space.Change{}) // want `lands a capability change outside the synchronization pass`
}
