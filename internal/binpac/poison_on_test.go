//go:build hiltipoison

package binpac_test

// poisonBuild: the hiltipoison tag is on, so a recycled value reads as
// garbage from its release.
const poisonBuild = true
