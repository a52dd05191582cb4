// Package buildtags declares one name per architecture, in a file pair
// the go command never compiles together.
package buildtags

func Wide() bool { return haveWide }
