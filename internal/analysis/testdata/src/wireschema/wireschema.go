// Package wireschema is the fixture for the wireschema analyzer:
// emit/parse marker pairs that agree, go stale, leave coverage gaps, or
// point at nothing.
package wireschema

import "fmt"

// emitOK sends the metrics line.
//
//hwlint:wire emit metrics
func emitOK(a, b, c int) string {
	return fmt.Sprintf("a=%d b=%d c=%d", a, b, c)
}

// parseOK consumes every emitted key: no findings.
//
//hwlint:wire parse metrics
func parseOK(k string) (a, b, c bool) {
	switch k {
	case "a":
		a = true
	case "b":
		b = true
	case "c":
		c = true
	}
	return
}

//hwlint:wire emit stale
func emitStale(x, y int) string {
	return fmt.Sprintf("s1=%d s2=%d", x, y)
}

// parseStale still handles s3, which no emitter sends anymore.
//
//hwlint:wire parse stale
func parseStale(k string) bool { // want "stale parser entry"
	switch k {
	case "s1", "s2", "s3":
		return true
	}
	return false
}

//hwlint:wire emit gap
func emitGap(p, q, r int) string {
	return fmt.Sprintf("g1=%d g2=%d g3=%d", p, q, r)
}

// parseGap is not marked subset, so missing g3 is a coverage gap.
//
//hwlint:wire parse gap
func parseGap(k string) bool { // want "does not handle emitted"
	switch k {
	case "g1", "g2":
		return true
	}
	return false
}

// Frame is the gauge frame; its json tags are the emit vocabulary.
//
//hwlint:wire emit gauges
type Frame struct {
	Load  float64 `json:"load"`
	Depth int     `json:"depth"`
	Skew  int     `json:"skew"`
	note  string  // untagged: not on the wire
}

// dashboardKeys is the stable subset a dashboard selects by name.
//
//hwlint:wire parse gauges subset
var dashboardKeys = []string{"load", "depth"}

//hwlint:wire parse orphan subset
var orphanKeys = []string{"o1"} // want "has a parser but no emitter"

//hwlint:wire emit ghost
func emitGhost(v int) string { // want "has an emitter but no parser"
	return fmt.Sprintf("gh1=%d", v)
}

//hwlint:wire emit hollow // want "extracted no keys"
func emitHollow() string { // want "has an emitter but no parser"
	return "no key directives here"
}

//hwlint:wire sideways nochan // want "malformed annotation"
func typoWire() {}
