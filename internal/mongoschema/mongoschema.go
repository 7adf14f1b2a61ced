// Package mongoschema reimplements the analysis style of the
// mongodb-schema JavaScript library ([22] in the tutorial): a streaming
// analyzer that consumes documents one at a time and maintains, for
// every field path, occurrence counts, a per-type histogram with
// probabilities, and a bounded sample of values. The tutorial's
// assessment: "it is able to return quite concise schemas, but it
// cannot infer information describing field correlation".
//
// The package also provides a Studio 3T-like mode ([19]): no type
// merging at all — every distinct document shape is kept verbatim, so
// the "schema" grows with the number of distinct shapes, "which is
// comparable to that of the input data" on heterogeneous collections.
package mongoschema

import (
	"sort"
	"strings"

	"repro/internal/jsontext"
	"repro/internal/jsonvalue"
)

// TypeStats records the occurrences of one type at one path.
type TypeStats struct {
	// Name is the type name in mongodb-schema vocabulary: "Null",
	// "Boolean", "Number", "String", "Array", "Document".
	Name string
	// Count is how many times the path carried this type.
	Count int
	// Samples retains up to SampleLimit example values (atoms only).
	Samples []*jsonvalue.Value
}

// FieldStats aggregates one field path.
type FieldStats struct {
	// Path is the dotted path from the root ("user.name"); array
	// traversal contributes "[]" segments ("entities.hashtags[].text").
	Path string
	// Count is how many parent contexts contained the field.
	Count int
	// Types is the histogram, sorted by descending count then name.
	Types []*TypeStats
}

// Probability of the field being present given its parent existed.
func (f *FieldStats) Probability(parentCount int) float64 {
	if parentCount == 0 {
		return 0
	}
	return float64(f.Count) / float64(parentCount)
}

// SampleLimit bounds retained sample values per (path, type).
const SampleLimit = 5

// Analyzer consumes documents in a streaming fashion.
type Analyzer struct {
	docCount int
	fields   map[string]*FieldStats
	// parentCounts tracks how many times each parent context (document
	// root or nested document path) was seen, the denominator for
	// presence probabilities.
	parentCounts map[string]int
}

// NewAnalyzer returns an empty streaming analyzer.
func NewAnalyzer() *Analyzer {
	return &Analyzer{
		fields:       make(map[string]*FieldStats),
		parentCounts: make(map[string]int),
	}
}

// Analyze folds one document into the analysis.
func (a *Analyzer) Analyze(doc *jsonvalue.Value) {
	a.docCount++
	a.parentCounts[""]++
	if doc.Kind() == jsonvalue.Object {
		a.analyzeObject(doc, "")
	}
}

func (a *Analyzer) analyzeObject(obj *jsonvalue.Value, prefix string) {
	seen := make(map[string]struct{}, obj.Len())
	for _, f := range obj.Fields() {
		if _, dup := seen[f.Name]; dup {
			continue
		}
		seen[f.Name] = struct{}{}
		fv, _ := obj.Get(f.Name)
		path := f.Name
		if prefix != "" {
			path = prefix + "." + f.Name
		}
		a.record(path, fv)
	}
}

func (a *Analyzer) record(path string, v *jsonvalue.Value) {
	fs := a.fields[path]
	if fs == nil {
		fs = &FieldStats{Path: path}
		a.fields[path] = fs
	}
	fs.Count++
	a.recordType(fs, v)
	switch v.Kind() {
	case jsonvalue.Object:
		a.parentCounts[path]++
		a.analyzeObject(v, path)
	case jsonvalue.Array:
		elemPath := path + "[]"
		for _, e := range v.Elems() {
			a.parentCounts[path+"[]_ctx"]++
			a.record(elemPath, e)
		}
	}
}

func (a *Analyzer) recordType(fs *FieldStats, v *jsonvalue.Value) {
	name := typeName(v)
	for _, ts := range fs.Types {
		if ts.Name == name {
			ts.Count++
			addSample(ts, v)
			return
		}
	}
	ts := &TypeStats{Name: name, Count: 1}
	addSample(ts, v)
	fs.Types = append(fs.Types, ts)
}

func addSample(ts *TypeStats, v *jsonvalue.Value) {
	switch v.Kind() {
	case jsonvalue.Object, jsonvalue.Array:
		return
	}
	if len(ts.Samples) < SampleLimit {
		ts.Samples = append(ts.Samples, v)
	}
}

func typeName(v *jsonvalue.Value) string {
	switch v.Kind() {
	case jsonvalue.Null:
		return "Null"
	case jsonvalue.Bool:
		return "Boolean"
	case jsonvalue.Number:
		return "Number"
	case jsonvalue.String:
		return "String"
	case jsonvalue.Array:
		return "Array"
	case jsonvalue.Object:
		return "Document"
	default:
		return "Unknown"
	}
}

// Fields returns the per-path statistics sorted by path.
func (a *Analyzer) Fields() []*FieldStats {
	out := make([]*FieldStats, 0, len(a.fields))
	for _, fs := range a.fields {
		fsCopy := *fs
		types := make([]*TypeStats, len(fs.Types))
		copy(types, fs.Types)
		sort.Slice(types, func(i, j int) bool {
			if types[i].Count != types[j].Count {
				return types[i].Count > types[j].Count
			}
			return types[i].Name < types[j].Name
		})
		fsCopy.Types = types
		out = append(out, &fsCopy)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out
}

// Schema renders the analysis as a JSON document shaped like
// mongodb-schema's output: count plus a fields array carrying name,
// probability and a types histogram.
func (a *Analyzer) Schema() *jsonvalue.Value {
	fields := a.Fields()
	arr := make([]*jsonvalue.Value, 0, len(fields))
	for _, fs := range fields {
		parent := a.parentFor(fs.Path)
		types := make([]*jsonvalue.Value, 0, len(fs.Types))
		for _, ts := range fs.Types {
			types = append(types, jsonvalue.ObjectFromPairs(
				"bsonType", ts.Name,
				"count", ts.Count,
				"probability", float64(ts.Count)/float64(fs.Count),
			))
		}
		arr = append(arr, jsonvalue.ObjectFromPairs(
			"name", fs.Path,
			"count", fs.Count,
			"probability", fs.Probability(parent),
			"types", jsonvalue.NewArray(types...),
		))
	}
	return jsonvalue.ObjectFromPairs(
		"count", a.docCount,
		"fields", jsonvalue.NewArray(arr...),
	)
}

// parentFor returns the denominator context count for a path.
func (a *Analyzer) parentFor(path string) int {
	idx := strings.LastIndex(path, ".")
	if strings.HasSuffix(path, "[]") {
		// element context: number of elements seen
		return a.parentCounts[path+"_ctx"]
	}
	if idx < 0 {
		return a.parentCounts[""]
	}
	parent := path[:idx]
	if strings.HasSuffix(parent, "[]") {
		base := strings.TrimSuffix(parent, "[]")
		_ = base
		// elements that were documents
		if fs := a.fields[parent]; fs != nil {
			for _, ts := range fs.Types {
				if ts.Name == "Document" {
					return ts.Count
				}
			}
		}
		return 0
	}
	return a.parentCounts[parent]
}

// SchemaSize returns the serialised size of the analyzer report in
// bytes — the "concise schema" measure of E4.
func (a *Analyzer) SchemaSize() int {
	return len(jsontext.Marshal(a.Schema()))
}

// ShapeCollector is the Studio 3T-like no-merge analyzer: it records
// every distinct document shape verbatim. Shape = the document with
// every atom replaced by its type name, rendered canonically.
type ShapeCollector struct {
	docCount int
	shapes   map[string]int
	reprs    map[string]*jsonvalue.Value
}

// NewShapeCollector returns an empty collector.
func NewShapeCollector() *ShapeCollector {
	return &ShapeCollector{shapes: make(map[string]int), reprs: make(map[string]*jsonvalue.Value)}
}

// Analyze folds one document.
func (c *ShapeCollector) Analyze(doc *jsonvalue.Value) {
	c.docCount++
	shape := shapeOf(doc)
	key := jsontext.MarshalString(shape.SortFields())
	if _, ok := c.shapes[key]; !ok {
		c.reprs[key] = shape
	}
	c.shapes[key]++
}

// shapeOf replaces atoms with type-name strings, keeping structure.
func shapeOf(v *jsonvalue.Value) *jsonvalue.Value {
	switch v.Kind() {
	case jsonvalue.Object:
		fields := make([]jsonvalue.Field, 0, v.Len())
		for _, f := range v.Fields() {
			fields = append(fields, jsonvalue.Field{Name: f.Name, Value: shapeOf(f.Value)})
		}
		return jsonvalue.NewObject(fields...)
	case jsonvalue.Array:
		elems := make([]*jsonvalue.Value, v.Len())
		for i, e := range v.Elems() {
			elems[i] = shapeOf(e)
		}
		return jsonvalue.NewArray(elems...)
	default:
		return jsonvalue.NewString(typeName(v))
	}
}

// DistinctShapes returns the number of distinct shapes seen.
func (c *ShapeCollector) DistinctShapes() int { return len(c.shapes) }

// Schema renders every distinct shape with its count — the unmerged,
// potentially huge result the tutorial attributes to Studio 3T.
func (c *ShapeCollector) Schema() *jsonvalue.Value {
	keys := make([]string, 0, len(c.shapes))
	for k := range c.shapes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	arr := make([]*jsonvalue.Value, 0, len(keys))
	for _, k := range keys {
		arr = append(arr, jsonvalue.ObjectFromPairs(
			"count", c.shapes[k],
			"shape", c.reprs[k],
		))
	}
	return jsonvalue.ObjectFromPairs("count", c.docCount, "shapes", jsonvalue.NewArray(arr...))
}

// SchemaSize returns the serialised report size in bytes.
func (c *ShapeCollector) SchemaSize() int {
	return len(jsontext.Marshal(c.Schema()))
}
