//go:build !amd64

package buildtags

var haveWide = false
