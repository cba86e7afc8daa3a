//go:build !race

// The race detector's instrumentation changes frame sizes; nothing is measured
// under it.

package main

import (
	"testing"
	"unsafe"
)

//go:noinline
func stackAddr() uintptr {
	var x byte
	return uintptr(unsafe.Pointer(&x))
}

// TestAtDepthCoversAlignments pins the property atDepth exists for: one more
// frame moves the stack by an odd multiple of 8 bytes, so rotating through
// stackDepths frames visits every 8-byte alignment within a cache line and
// spans more than a page.
func TestAtDepthCoversAlignments(t *testing.T) {
	var a, b uintptr
	atDepth(1, func() { a = stackAddr() })
	atDepth(2, func() { b = stackAddr() })
	step := a - b
	if step%8 != 0 || (step/8)%2 == 0 {
		t.Errorf("a frame of atDepth is %d bytes; want an odd multiple of 8 so that depths differ modulo 64", step)
	}
	if span := step * stackDepths; span < 4096 {
		t.Errorf("%d depths of %d bytes span %d bytes; want at least a 4096-byte page", stackDepths, step, span)
	}
}
