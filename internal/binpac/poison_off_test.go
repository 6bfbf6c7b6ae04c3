//go:build !hiltipoison

package binpac_test

// poisonBuild: the hiltipoison tag is off, so a recycled value keeps its
// last content until it is reused.
const poisonBuild = false
