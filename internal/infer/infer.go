// infer.go holds the map phase (TypeOf) and the materialised-collection
// engines; the streamed engine lives in tokens.go and its chunking stage
// in chunking.go.

package infer

import (
	"runtime"
	"sync"

	"repro/internal/jsonvalue"
	"repro/internal/typelang"
)

// DefaultBatch is the number of documents per work unit of the batched
// and parallel engines — of document-starting lines per window in the
// streamed parallel shape. Batches amortise merge canonicalisation and
// channel traffic; the value only needs to be large enough that the
// per-batch overhead vanishes against typing cost.
const DefaultBatch = 256

// Options configure an inference run.
type Options struct {
	// Equiv is the merge equivalence: typelang.EquivKind (K) or
	// typelang.EquivLabel (L). The zero value is K.
	Equiv typelang.Equiv
	// Workers bounds parallel workers in InferParallel and picks the
	// shape of a one-shot streamed run (InferStream, InferStreamBytes,
	// InferStreamFiles):
	// one worker absorbs windows in line, several walk windows for that
	// many workers; 0 means GOMAXPROCS. InferStreamInto does not read
	// it: a collector feed is always absorbed in line.
	Workers int
	// ChunkBytes, when positive, sets the byte length of a streamed
	// run's windows at every worker count. At 0 a window is 4 MiB for a
	// one-worker run, one 256 KiB read block into a collector, and
	// DefaultBatch document-starting lines at several workers — GB-scale
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

// foldBatch types one batch of documents and merges it into acc. buf
// is scratch reused across calls (slot 0 carries the accumulator); the
// caller threads the returned slice back in.
func foldBatch(acc *typelang.Type, docs []*jsonvalue.Value, buf []*typelang.Type, opts Options) (*typelang.Type, []*typelang.Type) {
	buf = append(buf[:0], acc)
	for _, d := range docs {
		buf = append(buf, TypeOf(d, opts.Equiv))
	}
	return typelang.MergeAll(buf, opts.Equiv), buf
}

// Infer runs map and reduce over a materialised collection. The fold
// proceeds in batches — by associativity of the merge the result is
// identical to a per-document fold, at a fraction of the intermediate
// allocations.
func Infer(docs []*jsonvalue.Value, opts Options) *typelang.Type {
	acc := typelang.Bottom
	batch := opts.batchSize()
	buf := make([]*typelang.Type, 0, min(batch, len(docs))+1)
	for lo := 0; lo < len(docs); lo += batch {
		acc, buf = foldBatch(acc, docs[lo:min(lo+batch, len(docs))], buf, opts)
	}
	return acc
}

// InferParallel runs the map/reduce over a worker pool: a bounded
// queue of document batches feeds the workers, each worker folds the
// batches it receives into its own partial type, and the partials meet
// in a parallel tree reduction. By associativity and commutativity of
// the merge the result is identical to Infer's.
func InferParallel(docs []*jsonvalue.Value, opts Options) *typelang.Type {
	workers := opts.workers()
	if workers > len(docs) {
		workers = len(docs)
	}
	if workers <= 1 {
		return Infer(docs, opts)
	}
	batch := opts.batchSize()
	if batch > (len(docs)+workers-1)/workers {
		// Small collection: shrink batches so every worker gets work.
		batch = (len(docs) + workers - 1) / workers
	}
	work := make(chan []*jsonvalue.Value, 2*workers)
	partials := startWorkers(work, workers, opts)
	for lo := 0; lo < len(docs); lo += batch {
		work <- docs[lo:min(lo+batch, len(docs))]
	}
	close(work)
	return mergeTree(<-partials, opts.Equiv)
}

// startWorkers launches the reduce pool: each worker folds the batches
// it pulls from work into its own partial type. The per-worker partials
// are delivered on the returned channel once work is closed and
// drained.
func startWorkers(work <-chan []*jsonvalue.Value, workers int, opts Options) <-chan []*typelang.Type {
	partials := make([]*typelang.Type, workers)
	done := make(chan []*typelang.Type, 1)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			acc := typelang.Bottom
			var buf []*typelang.Type
			for batch := range work {
				acc, buf = foldBatch(acc, batch, buf, opts)
			}
			partials[w] = acc
		}(w)
	}
	go func() {
		wg.Wait()
		done <- partials
	}()
	return done
}

// mergeTree reduces the partial types with a parallel binary tree:
// each round merges adjacent pairs concurrently, halving the list,
// so the final reduce is O(log n) rounds deep instead of a single
// goroutine folding n partials.
func mergeTree(ts []*typelang.Type, e typelang.Equiv) *typelang.Type {
	for len(ts) > 1 {
		next := make([]*typelang.Type, (len(ts)+1)/2)
		var wg sync.WaitGroup
		for i := 0; i < len(ts)/2; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				next[i] = typelang.Merge(ts[2*i], ts[2*i+1], e)
			}(i)
		}
		if len(ts)%2 == 1 {
			next[len(next)-1] = ts[len(ts)-1]
		}
		wg.Wait()
		ts = next
	}
	if len(ts) == 0 {
		return typelang.Bottom
	}
	return ts[0]
}
