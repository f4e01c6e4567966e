package analysis

import (
	"go/ast"
	"go/token"
	"reflect"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// WireSchema cross-checks the keys two sides of a wire format agree
// on: the BATCH frame header the lockservice server writes against the
// switch in the client that reads it, the detector's ActivationReport
// JSON against the PhaseTotals mirror that re-parses a subset, the
// hwtrace report schema against the manifest CI greps.
//
// Endpoints declare themselves with a marker:
//
//	//hwlint:wire emit <channel>
//	//hwlint:wire parse <channel> [subset]
//
// placed on a function declaration (an emitter's keys are the `key=%`
// directives in its string literals, a parser's the string labels of
// its switch cases), on a struct type declaration (keys are the fields'
// json tags), or on a []string variable (the literal elements — a
// manifest). The analyzer then enforces, per channel:
//
//   - both sides exist: an emitter with no parser (or vice versa) is a
//     finding — a marker pointing at nothing is stale;
//   - every parsed key is emitted by someone: a parser case for a key
//     the server no longer sends is dead wire code;
//   - a parser not marked `subset` covers the full emit set: a new
//     emitted key must be consumed (or the parser downgraded to subset
//     deliberately).
var WireSchema = &Analyzer{
	Name:   "wireschema",
	Doc:    "emitted wire/schema keys and the code that parses them stay in sync",
	Run:    runWireSchema,
	Module: true,
}

const wirePrefix = "//hwlint:wire"

var (
	keyDirectiveRe = regexp.MustCompile(`([A-Za-z_][A-Za-z0-9_]*)=%`)
	keyTokenRe     = regexp.MustCompile(`^[A-Za-z_][A-Za-z0-9_]*$`)
)

// wireEndpoint is one marked emitter or parser.
type wireEndpoint struct {
	pos     token.Pos // the marker comment (malformed/no-keys findings)
	decl    token.Pos // the marked declaration (channel findings)
	name    string    // the marked declaration, for messages
	channel string
	parse   bool
	subset  bool
	keys    map[string]bool
}

func runWireSchema(p *Pass) {
	channels := map[string][]*wireEndpoint{}
	for _, pkg := range p.Mod.Pkgs {
		for _, file := range pkg.Files {
			for _, d := range file.Decls {
				collectWireMarkers(p, d, channels)
			}
		}
	}

	names := make([]string, 0, len(channels))
	for name := range channels {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		checkChannel(p, name, channels[name])
	}
}

// collectWireMarkers parses the markers on one declaration and
// extracts its key set.
func collectWireMarkers(p *Pass, d ast.Decl, channels map[string][]*wireEndpoint) {
	switch d := d.(type) {
	case *ast.FuncDecl:
		ep := parseWireMarker(p, d.Doc, d.Name.Name)
		if ep == nil {
			return
		}
		ep.decl = d.Name.Pos()
		extractFuncKeys(p, d, ep)
		channels[ep.channel] = append(channels[ep.channel], ep)
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			switch spec := spec.(type) {
			case *ast.TypeSpec:
				doc := spec.Doc
				if doc == nil {
					doc = d.Doc
				}
				ep := parseWireMarker(p, doc, spec.Name.Name)
				if ep == nil {
					continue
				}
				ep.decl = spec.Name.Pos()
				st, ok := spec.Type.(*ast.StructType)
				if !ok {
					p.Reportf(ep.pos, "%s: wire marker on a non-struct type; only functions, structs and []string manifests carry keys", ep.name)
					continue
				}
				extractTagKeys(st, ep)
				channels[ep.channel] = append(channels[ep.channel], ep)
			case *ast.ValueSpec:
				doc := spec.Doc
				if doc == nil {
					doc = d.Doc
				}
				ep := parseWireMarker(p, doc, specName(spec))
				if ep == nil {
					continue
				}
				if len(spec.Names) > 0 {
					ep.decl = spec.Names[0].Pos()
				} else {
					ep.decl = spec.Pos()
				}
				extractManifestKeys(spec, ep)
				channels[ep.channel] = append(channels[ep.channel], ep)
			}
		}
	}
}

func specName(spec *ast.ValueSpec) string {
	if len(spec.Names) > 0 {
		return spec.Names[0].Name
	}
	return "?"
}

// parseWireMarker reads one //hwlint:wire line out of a doc comment.
func parseWireMarker(p *Pass, doc *ast.CommentGroup, name string) *wireEndpoint {
	if doc == nil {
		return nil
	}
	for _, c := range doc.List {
		if !strings.HasPrefix(c.Text, wirePrefix) {
			continue
		}
		// Anything after a nested `//` is commentary, not marker syntax.
		text, _, _ := strings.Cut(strings.TrimPrefix(c.Text, wirePrefix), " //")
		fields := strings.Fields(text)
		ep := &wireEndpoint{pos: c.Pos(), name: name, keys: map[string]bool{}}
		bad := func() *wireEndpoint {
			p.Reportf(c.Pos(), "malformed annotation %q: want %s emit|parse <channel> [subset]", c.Text, wirePrefix)
			return nil
		}
		if len(fields) < 2 {
			return bad()
		}
		switch fields[0] {
		case "emit":
		case "parse":
			ep.parse = true
		default:
			return bad()
		}
		ep.channel = fields[1]
		for _, f := range fields[2:] {
			if f != "subset" || !ep.parse {
				return bad()
			}
			ep.subset = true
		}
		return ep
	}
	return nil
}

// extractFuncKeys pulls the key set out of a marked function: the
// `key=%` directives in an emitter's string literals, the switch case
// labels of a parser.
func extractFuncKeys(p *Pass, fd *ast.FuncDecl, ep *wireEndpoint) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if !ep.parse {
			if s, ok := stringLit(n); ok {
				for _, m := range keyDirectiveRe.FindAllStringSubmatch(s, -1) {
					ep.keys[m[1]] = true
				}
			}
			return true
		}
		// A parser's keys are its switch case labels verbatim; plain
		// literals elsewhere (error messages) are not keys.
		if cc, ok := n.(*ast.CaseClause); ok {
			for _, e := range cc.List {
				if s, ok := stringLit(unparen(e)); ok && keyTokenRe.MatchString(s) {
					ep.keys[s] = true
				}
			}
		}
		return true
	})
	if len(ep.keys) == 0 {
		p.Reportf(ep.pos, "%s: wire marker extracted no keys; the marker is on the wrong declaration or the format moved", ep.name)
	}
}

// stringLit returns the value of a string literal node.
func stringLit(n ast.Node) (string, bool) {
	lit, ok := n.(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return "", false
	}
	s, err := strconv.Unquote(lit.Value)
	return s, err == nil
}

// extractTagKeys reads a struct's json tags.
func extractTagKeys(st *ast.StructType, ep *wireEndpoint) {
	for _, f := range st.Fields.List {
		if f.Tag == nil {
			continue
		}
		raw, err := strconv.Unquote(f.Tag.Value)
		if err != nil {
			continue
		}
		tag := reflect.StructTag(raw).Get("json")
		name, _, _ := strings.Cut(tag, ",")
		if name != "" && name != "-" {
			ep.keys[name] = true
		}
	}
}

// extractManifestKeys reads a []string literal manifest.
func extractManifestKeys(spec *ast.ValueSpec, ep *wireEndpoint) {
	for _, v := range spec.Values {
		lit, ok := v.(*ast.CompositeLit)
		if !ok {
			continue
		}
		for _, el := range lit.Elts {
			if s, ok := stringLit(unparen(el)); ok {
				ep.keys[s] = true
			}
		}
	}
}

// checkChannel enforces the emit/parse agreement for one channel.
func checkChannel(p *Pass, name string, eps []*wireEndpoint) {
	emitted := map[string]bool{}
	var emitters, parsers []*wireEndpoint
	for _, ep := range eps {
		if ep.parse {
			parsers = append(parsers, ep)
		} else {
			emitters = append(emitters, ep)
			for k := range ep.keys {
				emitted[k] = true
			}
		}
	}
	if len(emitters) == 0 {
		for _, ep := range parsers {
			p.Reportf(ep.decl, "%s: channel %q has a parser but no emitter; the emit marker is missing or the emitter was removed", ep.name, name)
		}
		return
	}
	if len(parsers) == 0 {
		for _, ep := range emitters {
			p.Reportf(ep.decl, "%s: channel %q has an emitter but no parser; the parse marker is missing or the consumer was removed", ep.name, name)
		}
		return
	}
	for _, ep := range parsers {
		for _, k := range sortedKeys(ep.keys) {
			if !emitted[k] {
				p.Reportf(ep.decl, "%s: parses key %q which no %q emitter sends; stale parser entry", ep.name, k, name)
			}
		}
		if !ep.subset {
			if missing := minus(emitted, ep.keys); len(missing) > 0 {
				p.Reportf(ep.decl, "%s: does not handle emitted %q key(s) %s; consume them or mark the parser `subset`",
					ep.name, name, strings.Join(missing, ", "))
			}
		}
	}
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// minus returns a's keys not in b, sorted.
func minus(a, b map[string]bool) []string {
	var out []string
	for k := range a {
		if !b[k] {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}
