package whois

// CheckLoadDir lets the external test package, which may import the
// synthetic-world generator, hold a directory load to the reference.
var CheckLoadDir = checkLoadDir
