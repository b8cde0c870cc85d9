package telemetry

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
)

// FederatedScrape is one member's raw /metrics exposition, tagged with
// the node name to inject.
type FederatedScrape struct {
	Node string
	Body []byte
}

// federatedFamily accumulates one metric family across scrapes: the
// first HELP/TYPE metadata seen wins, series keep scrape order.
type federatedFamily struct {
	name   string
	help   string
	typ    string
	series []string
}

// Federate merges Prometheus text expositions from several nodes into
// one, prefixing every series' label set with node="<name>". Families
// are deduplicated by name (first HELP/TYPE wins) and emitted in sorted
// order; within a family, series keep scrape order with scrapes in the
// order given — so a fixed node list yields a byte-deterministic
// exposition. Cardinality is bounded by construction: the output is
// exactly the union of the member expositions (each itself bounded)
// times nothing — one extra label, no new series.
func Federate(scrapes []FederatedScrape) []byte {
	fams := map[string]*federatedFamily{}
	var order []string
	fam := func(name string) *federatedFamily {
		f := fams[name]
		if f == nil {
			f = &federatedFamily{name: name, typ: "untyped"}
			fams[name] = f
			order = append(order, name)
		}
		return f
	}
	for _, sc := range scrapes {
		var cur *federatedFamily
		for _, raw := range strings.Split(string(sc.Body), "\n") {
			line := strings.TrimSpace(raw)
			if line == "" {
				continue
			}
			if strings.HasPrefix(line, "#") {
				kind, name, rest, ok := parseComment(line)
				if !ok {
					continue
				}
				cur = fam(name)
				switch kind {
				case "HELP":
					if cur.help == "" {
						cur.help = rest
					}
				case "TYPE":
					if cur.typ == "untyped" && rest != "" {
						cur.typ = rest
					}
				}
				continue
			}
			base := seriesName(line)
			if base == "" {
				continue
			}
			f := cur
			// Histogram/summary series (_bucket/_sum/_count) belong to the
			// preceding header family; anything else that doesn't match the
			// current header starts its own implicit family.
			if f == nil || (base != f.name && !strings.HasPrefix(base, f.name+"_")) {
				f = fam(base)
			}
			f.series = append(f.series, injectNodeLabel(line, sc.Node))
		}
	}
	sort.Strings(order)
	var b bytes.Buffer
	for _, name := range order {
		f := fams[name]
		if len(f.series) == 0 {
			continue
		}
		if f.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", f.name, f.help)
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.typ)
		for _, s := range f.series {
			b.WriteString(s)
			b.WriteByte('\n')
		}
	}
	return b.Bytes()
}

// parseComment decodes "# HELP name rest" / "# TYPE name rest" lines.
func parseComment(line string) (kind, name, rest string, ok bool) {
	fields := strings.SplitN(line, " ", 4)
	if len(fields) < 3 || fields[0] != "#" {
		return "", "", "", false
	}
	if fields[1] != "HELP" && fields[1] != "TYPE" {
		return "", "", "", false
	}
	kind, name = fields[1], fields[2]
	if len(fields) == 4 {
		rest = fields[3]
	}
	return kind, name, rest, true
}

// seriesName extracts the metric name of a sample line.
func seriesName(line string) string {
	end := strings.IndexAny(line, "{ ")
	if end <= 0 {
		return ""
	}
	return line[:end]
}

// injectNodeLabel rewrites one sample line so node="<name>" is the
// first label, right after the metric name. Callers pass only lines
// with a non-empty seriesName; the name ends at the first '{' or ' ', so
// a '{' inside a later token is never mistaken for the label set.
func injectNodeLabel(line, node string) string {
	esc := escapeLabel(node)
	i := strings.IndexAny(line, "{ ")
	switch {
	case line[i] == ' ':
		return line[:i] + `{node="` + esc + `"}` + line[i:]
	case strings.HasPrefix(line[i+1:], "}"): // empty label set: name{} value
		return line[:i] + `{node="` + esc + `"` + line[i+1:]
	}
	return line[:i] + `{node="` + esc + `",` + line[i+1:]
}
