// Package skeleton implements the schema-skeleton approach of Wang,
// Zhang, Shi, Jiao, Hassanzadeh, Zou and Wang, "Schema Management for
// Document Stores" (VLDB 2015) — [24] in the tutorial. A skeleton is
// "a collection of trees describing structures that frequently appear
// in the objects of a JSON data collection"; crucially, it "may totally
// miss information about paths that can be traversed in some of the
// JSON objects". The skeleton trades completeness for size: frequent
// structure in, rare structure out.
//
// The implementation summarises each document as its structural tree
// (field names and nesting only — the eSiBu-Tree view), groups
// documents by structure, and selects every structure whose relative
// support meets the threshold. The union of the selected structures is
// the skeleton. Coverage measures how much of the collection's path
// traffic the skeleton retains.
package skeleton

import (
	"sort"
	"strings"

	"repro/internal/jsonvalue"
)

// Structure is one distinct document structure with its support.
type Structure struct {
	// Paths is the sorted set of leaf paths of the structure (dotted
	// names, "[]" for array traversal) — the tree in path form.
	Paths []string
	// Count is the number of documents exhibiting the structure.
	Count int
}

// Skeleton is a mined schema skeleton.
type Skeleton struct {
	// Structures are the retained frequent structures, by descending
	// support.
	Structures []Structure
	// TotalDocs is the size of the collection the skeleton was mined
	// from.
	TotalDocs int
	// MinSupport is the mining threshold (relative frequency).
	MinSupport float64

	paths map[string]struct{} // union of retained structure paths
}

// Build mines the skeleton of a collection at the given minimum
// relative support in (0, 1]. A path enters the skeleton when it
// appears in a frequent whole-document structure or is itself frequent
// (appears in at least minSupport of the documents) — the latter is the
// frequent-subtree view that keeps skeletons useful on collections
// where optional fields make every full structure rare.
func Build(docs []*jsonvalue.Value, minSupport float64) *Skeleton {
	counts := make(map[string]int)
	repr := make(map[string][]string)
	pathCounts := make(map[string]int)
	for _, d := range docs {
		paths := jsonvalue.Paths(d)
		for _, p := range paths {
			pathCounts[p]++
		}
		sort.Strings(paths)
		key := strings.Join(paths, "\x00")
		counts[key]++
		if _, seen := repr[key]; !seen {
			repr[key] = paths
		}
	}
	type entry struct {
		key   string
		count int
	}
	entries := make([]entry, 0, len(counts))
	for k, c := range counts {
		entries = append(entries, entry{k, c})
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].count != entries[j].count {
			return entries[i].count > entries[j].count
		}
		return entries[i].key < entries[j].key
	})
	sk := &Skeleton{
		TotalDocs:  len(docs),
		MinSupport: minSupport,
		paths:      make(map[string]struct{}),
	}
	for _, e := range entries {
		support := float64(e.count) / float64(max(1, len(docs)))
		if support < minSupport {
			continue
		}
		st := Structure{Paths: repr[e.key], Count: e.count}
		sk.Structures = append(sk.Structures, st)
		for _, p := range st.Paths {
			sk.paths[p] = struct{}{}
		}
	}
	for p, c := range pathCounts {
		if float64(c)/float64(max(1, len(docs))) >= minSupport {
			sk.paths[p] = struct{}{}
		}
	}
	return sk
}

// Size returns the number of distinct paths retained — the skeleton's
// size measure (E8).
func (s *Skeleton) Size() int { return len(s.paths) }

// AnswersPath reports whether a query touching the given path can be
// answered from the skeleton — the query-formulation use case of the
// paper. Paths absent from the skeleton are exactly the "totally
// missed" information the tutorial mentions.
func (s *Skeleton) AnswersPath(path string) bool {
	_, ok := s.paths[path]
	return ok
}

// Coverage returns the fraction of the collection's path occurrences
// that the skeleton retains: for each document, the covered share of
// its leaf paths, averaged over documents.
func (s *Skeleton) Coverage(docs []*jsonvalue.Value) float64 {
	if len(docs) == 0 {
		return 1
	}
	var total float64
	for _, d := range docs {
		paths := jsonvalue.Paths(d)
		if len(paths) == 0 {
			total++
			continue
		}
		covered := 0
		for _, p := range paths {
			if _, ok := s.paths[p]; ok {
				covered++
			}
		}
		total += float64(covered) / float64(len(paths))
	}
	return total / float64(len(docs))
}

// DocCoverage returns the fraction of documents whose entire path set
// the skeleton covers — the stricter all-or-nothing coverage measure.
func (s *Skeleton) DocCoverage(docs []*jsonvalue.Value) float64 {
	if len(docs) == 0 {
		return 1
	}
	full := 0
	for _, d := range docs {
		ok := true
		for _, p := range jsonvalue.Paths(d) {
			if _, covered := s.paths[p]; !covered {
				ok = false
				break
			}
		}
		if ok {
			full++
		}
	}
	return float64(full) / float64(len(docs))
}
