//go:build !linux

package main

import "context"

// Where sched_setaffinity and SCHED_IDLE do not exist the harness runs
// wherever the scheduler puts it, with no idlers.

type idlers struct{}

func startIdlers(context.Context) idlers { return idlers{} }
func (idlers) stop()                     {}

type cpuSplit struct{}

func splitCPUs() cpuSplit                       { return cpuSplit{} }
func (cpuSplit) spawn(start func() error) error { return start() }
func (cpuSplit) undo()                          {}
