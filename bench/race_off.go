//go:build !race

package main

// raceEnabled reports whether the binary was built with -race, under
// which timings are meaningless and the harness refuses to report them.
const raceEnabled = false
