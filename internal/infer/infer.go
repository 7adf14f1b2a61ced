// infer.go holds the map phase (TypeOf) and the materialised-collection
// fold (Infer); the streamed engine lives in tokens.go and its chunking
// stage in chunking.go.

package infer

import (
	"runtime"

	"repro/internal/jsonvalue"
	"repro/internal/typelang"
)

// DefaultBatch is the number of documents per merge batch of Infer and
// per window in the streamed parallel shape.
// Batches amortise merge canonicalisation and per-window pipeline
// overhead; the value only needs to be large enough that the per-batch
// overhead vanishes against typing cost.
const DefaultBatch = 256

// Options configure an inference run.
type Options struct {
	// Equiv is the merge equivalence: typelang.EquivKind (K) or
	// typelang.EquivLabel (L). The zero value is K.
	Equiv typelang.Equiv
	// Workers picks the shape of a one-shot streamed run (InferStream,
	// InferStreamFiles): one worker absorbs windows in
	// line, several walk windows for that many workers; 0 means
	// GOMAXPROCS. Infer does not read it, nor does InferStreamInto: a
	// collector feed is always absorbed in line.
	Workers int
	// ChunkBytes, when positive, sets the least byte length of a
	// streamed run's windows at every worker count: a window ends at the
	// first document end at or past it, or at the end of its input. At 0
	// it is 4 MiB for a one-worker run and one 256 KiB read block into a
	// collector, and a window is DefaultBatch documents at several workers — GB-scale
	// inputs want larger ones there: bigger windows amortise the
	// per-window pipeline overhead regardless of how small the documents
	// are.
	ChunkBytes int
	// Stats, when non-nil, receives the streamed engines' pipeline
	// counters and per-stage clocks (see PipelineStats). Recording is
	// lock-free and flushed at chunk granularity; nil keeps the pipeline
	// entirely uninstrumented.
	Stats *PipelineStats
	// batch overrides DefaultBatch when positive: the in-package tests'
	// seam for small chunkings.
	batch int
}

func (o Options) workers() int {
	if o.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return o.Workers
}

// window is a run's window length in bytes: ChunkBytes, else def.
func (o Options) window(def int) int {
	if o.ChunkBytes > 0 {
		return o.ChunkBytes
	}
	return def
}

func (o Options) batchSize() int {
	if o.batch <= 0 {
		return DefaultBatch
	}
	return o.batch
}

// Interned count-1 atoms for the map phase. Types are immutable once
// built (the merge copies atoms before touching counts), so every
// occurrence of an atomic value can share one node instead of
// allocating — the map phase produces mostly leaves, so this removes
// the bulk of its allocations.
var (
	atomNull = typelang.Atom(typelang.KNull, 1)
	atomBool = typelang.Atom(typelang.KBool, 1)
	atomInt  = typelang.Atom(typelang.KInt, 1)
	atomNum  = typelang.Atom(typelang.KNum, 1)
	atomStr  = typelang.Atom(typelang.KStr, 1)
)

// TypeOf computes the exact type of one value — the map phase. Every
// node carries Count 1 (and record fields Count 1); array element types
// are merged under e, as array contents form a collection of their own.
func TypeOf(v *jsonvalue.Value, e typelang.Equiv) *typelang.Type {
	switch v.Kind() {
	case jsonvalue.Null:
		return atomNull
	case jsonvalue.Bool:
		return atomBool
	case jsonvalue.Number:
		if v.IsInt() {
			return atomInt
		}
		return atomNum
	case jsonvalue.String:
		return atomStr
	case jsonvalue.Array:
		elems := v.Elems()
		ts := make([]*typelang.Type, len(elems))
		for i, el := range elems {
			ts[i] = TypeOf(el, e)
		}
		return typelang.NewArrayCounted(typelang.MergeAll(ts, e), 1, len(elems), len(elems))
	case jsonvalue.Object:
		fields := make([]typelang.Field, 0, v.Len())
		var seen map[string]struct{}
		if v.Len() > smallObject {
			seen = make(map[string]struct{}, v.Len())
		}
		for _, f := range v.Fields() {
			// Duplicate names: effective view, last binding wins below.
			if seen != nil {
				if _, dup := seen[f.Name]; dup {
					continue
				}
				seen[f.Name] = struct{}{}
			} else if containsField(fields, f.Name) {
				continue
			}
			fv, _ := v.Get(f.Name)
			fields = append(fields, typelang.Field{
				Name:  f.Name,
				Type:  TypeOf(fv, e),
				Count: 1,
			})
		}
		return typelang.RecordOwned(1, fields)
	default:
		return typelang.Bottom
	}
}

// smallObject bounds the linear-scan duplicate check in TypeOf: below
// it a scan over the built fields beats allocating a set; above it the
// set keeps wide (map-shaped) objects linear instead of quadratic.
const smallObject = 16

// containsField reports whether name is already present.
func containsField(fields []typelang.Field, name string) bool {
	for i := range fields {
		if fields[i].Name == name {
			return true
		}
	}
	return false
}

// Infer runs map and reduce over a materialised collection — the
// library API for values already in memory, and the oracle the streamed
// engine is pinned against. The fold proceeds in batches: by
// associativity of the merge the result is identical to a per-document
// fold, at a fraction of the intermediate allocations.
func Infer(docs []*jsonvalue.Value, opts Options) *typelang.Type {
	acc := typelang.Bottom
	batch := opts.batchSize()
	buf := make([]*typelang.Type, 0, min(batch, len(docs))+1)
	for lo := 0; lo < len(docs); lo += batch {
		buf = append(buf[:0], acc)
		for _, d := range docs[lo:min(lo+batch, len(docs))] {
			buf = append(buf, TypeOf(d, opts.Equiv))
		}
		acc = typelang.MergeAll(buf, opts.Equiv)
	}
	return acc
}
