//go:build race

package hbytes

const raceEnabled = true
