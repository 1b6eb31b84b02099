//go:build race

package server

// raceBuild is set in a build with the race detector, whose
// instrumentation makes the code under test allocate more.
const raceBuild = true
