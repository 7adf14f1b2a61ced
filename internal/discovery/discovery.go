// Package discovery implements Couchbase-style automatic schema
// discovery ([3] in the tutorial): "a schema discovery module which
// classifies the objects of a JSON collection based on both structural
// and semantic information ... meant to facilitate query formulation
// and select relevant indexes for optimizing query workloads".
//
// Documents are classified into flavors — clusters keyed by structure
// (field set and kinds) refined with semantic classes for string
// values (dates, URLs, identifiers, free text). On top of the flavor
// report, SuggestIndexes ranks scalar paths by how useful a secondary
// index on them would be: high support (the path exists in most
// documents) and high selectivity (values are close to distinct).
package discovery

import (
	"fmt"
	"regexp"
	"sort"
	"strings"

	"repro/internal/jsonvalue"
)

// SemanticClass refines string kinds with value-level information.
type SemanticClass string

// The recognised semantic classes.
const (
	SemNone     SemanticClass = ""         // not a string
	SemDate     SemanticClass = "date"     // 2019-03-26
	SemDateTime SemanticClass = "datetime" // 2019-03-26T10:00:00Z
	SemURL      SemanticClass = "url"      // https://...
	SemNumeric  SemanticClass = "numeric"  // "42", "3.14"
	SemID       SemanticClass = "id"       // short token with digits
	SemText     SemanticClass = "text"     // anything else
)

var (
	dateRe     = regexp.MustCompile(`^\d{4}-\d{2}-\d{2}$`)
	dateTimeRe = regexp.MustCompile(`^\d{4}-\d{2}-\d{2}T\d{2}:\d{2}:\d{2}`)
	urlRe      = regexp.MustCompile(`^[a-z][a-z0-9+.-]*://`)
	numericRe  = regexp.MustCompile(`^-?\d+(\.\d+)?$`)
	idRe       = regexp.MustCompile(`^[A-Za-z]*[-_]?\d[\dA-Za-z_-]*$`)
)

// ClassifyString assigns a semantic class to a string value.
func ClassifyString(s string) SemanticClass {
	switch {
	case dateTimeRe.MatchString(s):
		return SemDateTime
	case dateRe.MatchString(s):
		return SemDate
	case urlRe.MatchString(s):
		return SemURL
	case numericRe.MatchString(s):
		return SemNumeric
	case len(s) <= 24 && !strings.Contains(s, " ") && idRe.MatchString(s):
		return SemID
	default:
		return SemText
	}
}

// FieldInfo aggregates one scalar path across the collection.
type FieldInfo struct {
	Path string
	// Count is the number of documents containing the path.
	Count int
	// Kinds maps each observed JSON kind name to its count.
	Kinds map[string]int
	// Semantics maps semantic classes to counts (strings only).
	Semantics map[SemanticClass]int
	// Distinct is the number of distinct values observed (capped).
	Distinct int

	distinctSet map[string]struct{}
}

// distinctCap bounds per-field distinct tracking; beyond it the field
// is "effectively unique" for index purposes.
const distinctCap = 4096

// Support is the fraction of documents containing the path.
func (f *FieldInfo) Support(totalDocs int) float64 {
	if totalDocs == 0 {
		return 0
	}
	return float64(f.Count) / float64(totalDocs)
}

// Selectivity is distinct values over occurrences: 1.0 means unique.
func (f *FieldInfo) Selectivity() float64 {
	if f.Count == 0 {
		return 0
	}
	return float64(f.Distinct) / float64(f.Count)
}

// Flavor is one structural cluster of documents.
type Flavor struct {
	// Signature is the sorted list of top-level "name:kind" pairs.
	Signature string
	Count     int
	// Example is one representative document.
	Example *jsonvalue.Value
}

// Report is the discovery result.
type Report struct {
	TotalDocs int
	Flavors   []Flavor
	Fields    []*FieldInfo

	fieldIndex map[string]*FieldInfo
}

// Discover classifies a collection.
func Discover(docs []*jsonvalue.Value) *Report {
	r := &Report{fieldIndex: make(map[string]*FieldInfo)}
	flavorCounts := map[string]int{}
	flavorExample := map[string]*jsonvalue.Value{}
	for _, d := range docs {
		r.TotalDocs++
		sig := signature(d)
		flavorCounts[sig]++
		if _, ok := flavorExample[sig]; !ok {
			flavorExample[sig] = d
		}
		r.collect(d, "")
	}
	for sig, count := range flavorCounts {
		r.Flavors = append(r.Flavors, Flavor{Signature: sig, Count: count, Example: flavorExample[sig]})
	}
	sort.Slice(r.Flavors, func(i, j int) bool {
		if r.Flavors[i].Count != r.Flavors[j].Count {
			return r.Flavors[i].Count > r.Flavors[j].Count
		}
		return r.Flavors[i].Signature < r.Flavors[j].Signature
	})
	sort.Slice(r.Fields, func(i, j int) bool { return r.Fields[i].Path < r.Fields[j].Path })
	return r
}

// signature renders the document structure with semantic refinement to
// two levels of nesting: "name:kind" pairs, strings refined to
// "string/<class>", object values expanded one level (Couchbase's
// classification is structural below the top as well — GitHub-style
// collections discriminate on payload shape, not top-level names).
func signature(d *jsonvalue.Value) string {
	return signatureAtDepth(d, 2)
}

func signatureAtDepth(d *jsonvalue.Value, depth int) string {
	if d.Kind() != jsonvalue.Object {
		return "<" + d.Kind().String() + ">"
	}
	parts := make([]string, 0, d.Len())
	seen := map[string]struct{}{}
	for _, f := range d.Fields() {
		if _, dup := seen[f.Name]; dup {
			continue
		}
		seen[f.Name] = struct{}{}
		var kind string
		switch {
		case f.Value.Kind() == jsonvalue.Object && depth > 1:
			kind = "{" + signatureAtDepth(f.Value, depth-1) + "}"
		case f.Value.Kind() == jsonvalue.String:
			kind = "string/" + string(ClassifyString(f.Value.Str()))
		default:
			kind = f.Value.Kind().String()
		}
		parts = append(parts, f.Name+":"+kind)
	}
	sort.Strings(parts)
	return strings.Join(parts, ",")
}

// collect gathers per-path scalar statistics, descending into objects
// and arrays ("[]" path segments).
func (r *Report) collect(v *jsonvalue.Value, prefix string) {
	switch v.Kind() {
	case jsonvalue.Object:
		seen := map[string]struct{}{}
		for _, f := range v.Fields() {
			if _, dup := seen[f.Name]; dup {
				continue
			}
			seen[f.Name] = struct{}{}
			p := f.Name
			if prefix != "" {
				p = prefix + "." + f.Name
			}
			r.collect(f.Value, p)
		}
	case jsonvalue.Array:
		for _, e := range v.Elems() {
			r.collect(e, prefix+"[]")
		}
	default:
		fi := r.fieldIndex[prefix]
		if fi == nil {
			fi = &FieldInfo{
				Path:        prefix,
				Kinds:       map[string]int{},
				Semantics:   map[SemanticClass]int{},
				distinctSet: map[string]struct{}{},
			}
			r.fieldIndex[prefix] = fi
			r.Fields = append(r.Fields, fi)
		}
		fi.Count++
		fi.Kinds[v.Kind().String()]++
		if v.Kind() == jsonvalue.String {
			fi.Semantics[ClassifyString(v.Str())]++
		}
		if len(fi.distinctSet) < distinctCap {
			key := v.String()
			if _, dup := fi.distinctSet[key]; !dup {
				fi.distinctSet[key] = struct{}{}
				fi.Distinct = len(fi.distinctSet)
			}
		}
	}
}

// IndexSuggestion is one ranked secondary-index recommendation.
type IndexSuggestion struct {
	Path string
	// Score is support × selectivity in [0, 1].
	Score float64
	// Reason explains the ranking.
	Reason string
}

// SuggestIndexes ranks scalar paths for secondary indexing: paths must
// appear in at least minSupport of documents; ranking favours high
// selectivity (point lookups) and penalises free-text fields.
func (r *Report) SuggestIndexes(k int, minSupport float64) []IndexSuggestion {
	var out []IndexSuggestion
	for _, f := range r.Fields {
		// Array-element paths index poorly in this simple model.
		if strings.Contains(f.Path, "[]") {
			continue
		}
		support := f.Support(r.TotalDocs)
		if support < minSupport {
			continue
		}
		sel := f.Selectivity()
		score := support * sel
		if f.Semantics[SemText] > f.Count/2 {
			score *= 0.25 // free text wants FTS, not a B-tree
		}
		if f.Kinds["number"] == f.Count {
			score *= 1.05 // fixed-width numeric keys index best
		}
		out = append(out, IndexSuggestion{
			Path:  f.Path,
			Score: score,
			Reason: fmt.Sprintf("support %.2f, selectivity %.2f, kinds %v",
				support, sel, kindList(f.Kinds)),
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Path < out[j].Path
	})
	if len(out) > k {
		out = out[:k]
	}
	return out
}

func kindList(kinds map[string]int) []string {
	out := make([]string, 0, len(kinds))
	for k := range kinds {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
