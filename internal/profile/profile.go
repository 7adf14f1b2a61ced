// Package profile implements schema profiling in the style of
// Gallinucci, Golfarelli and Rizzi, "Schema profiling of
// document-oriented databases" (Information Systems 75, 2018) — the
// ML-flavoured direction §5 of the tutorial points to: explain the
// structural variants of a schemaless collection with a compact
// decision tree over structural features.
//
// Features are structural tests on a document ("is field X present?",
// "what kind does path Y carry?"). The tree is grown greedily by gini
// impurity reduction against the collection's own structural variants
// (the distinct top-level shapes), so profiling needs no external
// labels; tests can then measure how well the discovered leaves line
// up with known ground-truth clusters.
package profile

import (
	"sort"
	"strings"

	"repro/internal/jsonvalue"
)

// FeatureValue is the outcome of a structural feature test on one
// document: "absent", or the kind name of the value at the path.
func FeatureValue(doc *jsonvalue.Value, path string) string {
	cur := doc
	start := 0
	for i := 0; i <= len(path); i++ {
		if i == len(path) || path[i] == '.' {
			next, ok := cur.Get(path[start:i])
			if !ok {
				return "absent"
			}
			cur = next
			start = i + 1
		}
	}
	return cur.Kind().String()
}

// variantLabel is the structural class the tree explains: the sorted
// top-level field-name set of the document.
func variantLabel(doc *jsonvalue.Value) string {
	if doc.Kind() != jsonvalue.Object {
		return "<" + doc.Kind().String() + ">"
	}
	names := append([]string(nil), doc.FieldNames()...)
	sort.Strings(names)
	return strings.Join(names, ",")
}

// candidateFeatures enumerates the paths to test: every top-level
// field and every second-level field of object-valued top fields.
func candidateFeatures(docs []*jsonvalue.Value) []string {
	set := map[string]struct{}{}
	for _, d := range docs {
		if d.Kind() != jsonvalue.Object {
			continue
		}
		for _, f := range d.Fields() {
			set[f.Name] = struct{}{}
			if f.Value.Kind() == jsonvalue.Object {
				for _, g := range f.Value.Fields() {
					set[f.Name+"."+g.Name] = struct{}{}
				}
			}
		}
	}
	out := make([]string, 0, len(set))
	for p := range set {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// Node is one decision-tree node.
type Node struct {
	// Feature is the tested path; empty for leaves.
	Feature string
	// Children maps each observed feature value to a subtree.
	Children map[string]*Node
	// Docs holds the indexes of the documents reaching the node.
	Docs []int
	// Label is the majority structural variant at the node.
	Label string
}

// IsLeaf reports whether the node has no test.
func (n *Node) IsLeaf() bool { return n.Feature == "" }

// Tree is a fitted schema profile.
type Tree struct {
	Root *Node
	// Depth is the maximum test depth used.
	Depth int
	// NumLeaves counts leaves.
	NumLeaves int
}

// Build fits a profile tree of at most maxDepth levels.
func Build(docs []*jsonvalue.Value, maxDepth int) *Tree {
	features := candidateFeatures(docs)
	labels := make([]string, len(docs))
	for i, d := range docs {
		labels[i] = variantLabel(d)
	}
	all := make([]int, len(docs))
	for i := range all {
		all[i] = i
	}
	t := &Tree{}
	t.Root = t.grow(docs, labels, features, all, maxDepth, 1)
	return t
}

func (t *Tree) grow(docs []*jsonvalue.Value, labels []string, features []string, idxs []int, budget, depth int) *Node {
	node := &Node{Docs: idxs, Label: majority(labels, idxs)}
	if budget == 0 || pure(labels, idxs) {
		t.NumLeaves++
		if depth-1 > t.Depth {
			t.Depth = depth - 1
		}
		return node
	}
	bestGain := 0.0
	bestFeature := ""
	var bestSplit map[string][]int
	base := gini(labels, idxs)
	for _, f := range features {
		split := map[string][]int{}
		for _, i := range idxs {
			v := FeatureValue(docs[i], f)
			split[v] = append(split[v], i)
		}
		if len(split) < 2 {
			continue
		}
		after := 0.0
		for _, part := range split {
			after += float64(len(part)) / float64(len(idxs)) * gini(labels, part)
		}
		gain := base - after
		if gain > bestGain+1e-12 {
			bestGain, bestFeature, bestSplit = gain, f, split
		}
	}
	if bestFeature == "" {
		t.NumLeaves++
		if depth-1 > t.Depth {
			t.Depth = depth - 1
		}
		return node
	}
	node.Feature = bestFeature
	node.Children = make(map[string]*Node, len(bestSplit))
	keys := make([]string, 0, len(bestSplit))
	for k := range bestSplit {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		node.Children[k] = t.grow(docs, labels, features, bestSplit[k], budget-1, depth+1)
	}
	if depth > t.Depth {
		t.Depth = depth
	}
	return node
}

func majority(labels []string, idxs []int) string {
	counts := map[string]int{}
	best, bestN := "", -1
	for _, i := range idxs {
		counts[labels[i]]++
	}
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if counts[k] > bestN {
			best, bestN = k, counts[k]
		}
	}
	return best
}

func pure(labels []string, idxs []int) bool {
	if len(idxs) == 0 {
		return true
	}
	first := labels[idxs[0]]
	for _, i := range idxs[1:] {
		if labels[i] != first {
			return false
		}
	}
	return true
}

func gini(labels []string, idxs []int) float64 {
	if len(idxs) == 0 {
		return 0
	}
	counts := map[string]int{}
	for _, i := range idxs {
		counts[labels[i]]++
	}
	g := 1.0
	for _, c := range counts {
		p := float64(c) / float64(len(idxs))
		g -= p * p
	}
	return g
}

// Leaves returns all leaf nodes.
func (t *Tree) Leaves() []*Node {
	var out []*Node
	var rec func(n *Node)
	rec = func(n *Node) {
		if n.IsLeaf() {
			out = append(out, n)
			return
		}
		keys := make([]string, 0, len(n.Children))
		for k := range n.Children {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			rec(n.Children[k])
		}
	}
	rec(t.Root)
	return out
}

// Purity scores how well the tree's leaves isolate the given
// ground-truth clusters: the weighted share of each leaf's documents
// belonging to the leaf's majority cluster.
func (t *Tree) Purity(groundTruth []int) float64 {
	leaves := t.Leaves()
	total := 0
	agree := 0
	for _, leaf := range leaves {
		counts := map[int]int{}
		for _, i := range leaf.Docs {
			counts[groundTruth[i]]++
		}
		best := 0
		for _, c := range counts {
			if c > best {
				best = c
			}
		}
		agree += best
		total += len(leaf.Docs)
	}
	if total == 0 {
		return 1
	}
	return float64(agree) / float64(total)
}
