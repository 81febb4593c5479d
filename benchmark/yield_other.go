//go:build !linux

package main

// osYield has no portable form; runtime.Gosched alone has to do.
func osYield() {}
