//go:build !linux

package main

// fsType names the filesystem holding path; only Linux is inspected.
func fsType(string) string { return "unknown" }
