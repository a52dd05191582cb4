package buildtags

var haveWide = true
