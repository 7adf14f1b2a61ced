// registry.go holds the whole registry: collections, ingest, snapshots.
// See doc.go for the package story and the consistency model.

package registry

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"maps"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/infer"
	"repro/internal/typelang"
)

// Options configure a Registry; the zero value is usable (kind
// equivalence, no quota).
type Options struct {
	// Equiv is the merge equivalence every collection folds under:
	// typelang.EquivKind (K) or typelang.EquivLabel (L).
	Equiv typelang.Equiv
	// Quota is the default ingest rate limit for new collections (the
	// daemon's -rate-docs/-rate-bytes flags); the zero value is
	// unlimited. Collections can pin their own via
	// CollectionOptions.Quota.
	Quota Quota
}

// CollectionOptions override registry-wide defaults for one collection.
// The zero value overrides nothing.
type CollectionOptions struct {
	// Equiv, when non-nil, pins the collection's merge equivalence
	// instead of the registry default. A collection's equivalence is
	// fixed for its whole life at creation: a later override that
	// disagrees with it is rejected with ErrEquivMismatch (wrapped),
	// never silently coerced — mixing equivalences in one accumulator
	// would make the schema depend on request order.
	Equiv *typelang.Equiv
	// Quota, when non-nil, sets the collection's ingest rate limit
	// instead of the registry default. Unlike Equiv it is an operator
	// knob, not an identity: Create on an existing collection with a
	// Quota override updates the live quota in place (Ingest overrides
	// only apply when the ingest creates the collection).
	Quota *Quota
	// Observer, when non-nil, watches the stages of this ingest call;
	// see StageObserver. Create ignores it.
	Observer StageObserver
}

// StageObserver observes the phases of one ingest call: it is invoked
// with a stage name ("quota", "ingest") as the stage begins and the
// func it returns is called when that stage ends. The daemon's request
// tracer hangs spans off this hook; the registry itself knows nothing
// about tracing.
type StageObserver func(stage string) func()

// ErrEquivMismatch reports a per-collection equivalence override that
// disagrees with the equivalence the collection was created under.
var ErrEquivMismatch = errors.New("equivalence differs from the collection's")

// Registry is a concurrent, versioned store of named collections. All
// methods are safe for concurrent use; see doc.go for the consistency
// model.
type Registry struct {
	opts Options
	now  func() time.Time // quota clock; swapped in tests

	mu   sync.RWMutex // guards cols (the map, not the collections)
	cols map[string]*collection
}

// collection is one named schema accumulator: a live collector (ingests
// absorb into its typelang.Accums — on their own goroutine, one window
// per shard lock — reads seal what changed and fuse when several shards
// hold data, so Get/List on a quiet collection reuse the previous
// sealed snapshot) plus counters.
type collection struct {
	name    string
	equiv   typelang.Equiv // fixed at creation
	col     *infer.ShardedCollector
	lim     *limiter
	docs    atomic.Int64  // documents merged by finished ingests
	version atomic.Uint64 // ingest calls finished, with or without error
	errors  atomic.Int64  // ingest calls that ended in an error
	bytesIn atomic.Int64  // decoded payload bytes read by finished ingests
	limited atomic.Int64  // ingest requests rejected by the quota

	// stats is the collection's cumulative pipeline flight recorder:
	// the collector reports its read-side counters (the reads' seals,
	// fuses and fuse clock) straight into it, and each ingest call's
	// delta is folded in on completion (IngestWith).
	stats infer.PipelineStats

	// render holds the collection's last rendering of each form of
	// core.OutputForms that reads no counts, by the form's index: the
	// bytes, replaced and never written to, and the collector's
	// structure epoch they were rendered at. renders counts the
	// renderings made (WriteSchema).
	render struct {
		mu   sync.Mutex
		kept [len(core.OutputForms)]struct {
			epoch uint64
			b     []byte
		}
	}
	renders atomic.Int64

	// life guards the collector against Delete: ingests hold the read
	// side for their whole run, Delete takes the write side to wait
	// them out, and closed marks a deleted collection so a racing ingest
	// re-resolves the name instead of feeding a collector nobody will
	// read.
	life   sync.RWMutex
	closed bool
}

// New returns an empty registry.
func New(opts Options) *Registry {
	return &Registry{
		opts: opts,
		now:  time.Now,
		cols: make(map[string]*collection),
	}
}

// resolve returns the named collection, creating it (and its
// collector) on first use — under the override's equivalence when co
// pins one, the registry default otherwise. It reports whether this call
// created the collection, and rejects an override that disagrees with
// an existing collection's equivalence.
func (r *Registry) resolve(name string, co CollectionOptions) (c *collection, created bool, err error) {
	want := r.opts.Equiv
	if co.Equiv != nil {
		want = *co.Equiv
	}
	quota := r.opts.Quota
	if co.Quota != nil {
		quota = *co.Quota
	}
	r.mu.RLock()
	c = r.cols[name]
	r.mu.RUnlock()
	if c == nil {
		r.mu.Lock()
		if c = r.cols[name]; c == nil {
			c = &collection{
				name:  name,
				equiv: want,
				lim:   newLimiter(quota, r.now()),
			}
			c.col = infer.NewShardedCollectorStats(0, want, &c.stats)
			r.cols[name] = c
			created = true
		}
		r.mu.Unlock()
	}
	if co.Equiv != nil && c.equiv != want {
		return nil, false, fmt.Errorf("registry: collection %q: %w (collection %s, requested %s)",
			name, ErrEquivMismatch, c.equiv, want)
	}
	return c, created, nil
}

// Create ensures the named collection exists — under co's equivalence
// when pinned, the registry default otherwise — and returns its
// snapshot plus whether this call created it. Creating an existing
// collection with a compatible (or absent) override is idempotent; an
// incompatible override is rejected with ErrEquivMismatch (wrapped).
func (r *Registry) Create(name string, co CollectionOptions) (Snapshot, bool, error) {
	c, created, err := r.resolve(name, co)
	if err != nil {
		return Snapshot{}, false, err
	}
	if !created && co.Quota != nil {
		// Quota is an operator knob: a Create (the daemon's PUT) on an
		// existing collection re-targets the live limiter.
		c.lim.setQuota(*co.Quota, r.now())
	}
	return c.snapshot(), created, nil
}

// IngestResult reports one completed ingest call.
type IngestResult struct {
	// Collection is the collection name.
	Collection string
	// Docs is the number of documents this call merged in — on an
	// error, exactly the documents before it.
	Docs int
	// TotalDocs is the collection's document count including this call.
	TotalDocs int64
	// Bytes is the number of payload bytes this call read — decoded
	// bytes, when the caller hands the registry a decompressing reader.
	Bytes int64
	// Version is the collection version after this call.
	Version uint64
	// Stats is this call's pipeline delta — the counters and clocks of
	// exactly this ingest (the read-side ones, seals, fuses and the fuse
	// clock, accrue on the collection's shared collector and appear in
	// Snapshot.Pipeline). Every body is absorbed in line, window by
	// window, so Seals and ReduceNanos are 0. The daemon's tracer and
	// slow-request log read the window and fallback figures from here.
	Stats infer.StatsSnapshot
}

// Ingest streams the documents on rd (NDJSON, concatenated or
// pretty-printed JSON) into the named collection, creating it if
// needed. However long the body, it is read a 256 KiB block at a time
// and each window is lexed and typed on the caller's goroutine straight
// into one of the collection's accumulators: an ingest starts no
// goroutine and seals nothing. Any number of Ingest calls may run
// concurrently, on the same or different collections (as many of them
// as a collection has shards — min(GOMAXPROCS, 8) — absorb into it at
// the same time).
//
// On a malformed document the merged documents are exactly those before
// it (the error carries an absolute body offset) and the error is both
// returned and counted; the collection keeps the prefix. The result is
// valid whether or not err is nil. Committing is absorbing — nothing
// is buffered — so a snapshot taken after Ingest returns includes
// everything it merged.
func (r *Registry) Ingest(name string, rd io.Reader) (IngestResult, error) {
	return r.IngestWith(name, rd, CollectionOptions{})
}

// IngestWith is Ingest with per-collection overrides: the collection is
// created under co's pinned equivalence (and quota) when it does not
// exist yet, and an override that disagrees with an existing
// collection's equivalence is rejected (ErrEquivMismatch, wrapped)
// before any byte is read. A collection over its quota is likewise
// rejected before any byte is read: the error is a *RateLimitError
// carrying the retry delay, the rejection is counted, and rd is
// untouched.
func (r *Registry) IngestWith(name string, rd io.Reader, co CollectionOptions) (IngestResult, error) {
	var c *collection
	for {
		var err error
		if c, _, err = r.resolve(name, co); err != nil {
			return IngestResult{Collection: name}, err
		}
		c.life.RLock()
		if !c.closed {
			break
		}
		// Deleted between lookup and lock: the name no longer maps to
		// this collection, so resolve it again (creating a fresh one).
		c.life.RUnlock()
	}
	defer c.life.RUnlock()
	stage := func(name string) func() {
		if co.Observer == nil {
			return func() {}
		}
		return co.Observer(name)
	}
	endQuota := stage("quota")
	rlErr := c.lim.admit(name, r.now())
	endQuota()
	if rlErr != nil {
		c.limited.Add(1)
		return IngestResult{Collection: name, TotalDocs: c.docs.Load(), Version: c.version.Load()}, rlErr
	}
	// Each call records into a private flight recorder so its snapshot
	// is an exact per-request delta; the delta then folds into the
	// collection's cumulative stats (the collector reports its
	// read-side counters there directly).
	var st infer.PipelineStats
	cr := &countReader{r: rd}
	endIngest := stage("ingest")
	n, err := infer.InferStreamInto(cr, infer.Options{
		Equiv: c.equiv,
		Stats: &st,
	}, c.col)
	endIngest()
	delta := st.Snapshot()
	c.stats.AddSnapshot(delta)
	bytes := cr.n
	c.lim.charge(int64(n), bytes, r.now())
	c.bytesIn.Add(bytes)
	if err != nil {
		c.errors.Add(1)
		err = fmt.Errorf("registry: ingest into %q: %w", name, err)
	}
	total := c.docs.Add(int64(n))
	v := c.version.Add(1)
	return IngestResult{Collection: name, Docs: n, TotalDocs: total, Bytes: bytes, Version: v, Stats: delta}, err
}

// countReader counts payload bytes for the quota charge and the ingest
// byte counters. The pipeline reads the body on the ingest call's own
// goroutine, so the count is a plain one.
type countReader struct {
	r io.Reader
	n int64
}

func (c *countReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// Snapshot is a point-in-time view of one collection. Type is immutable
// (the registry never mutates published type nodes), so holding a
// Snapshot costs nothing and blocks nothing.
type Snapshot struct {
	Name string
	// Equiv is the merge equivalence the collection folds under.
	Equiv typelang.Equiv
	// Type is the schema merged so far; typelang.Bottom before any
	// document arrives.
	Type *typelang.Type
	// Docs is the number of documents Type summarises.
	Docs int64
	// Version counts finished ingest calls. A snapshot taken while an
	// ingest is in flight may already include documents of the next
	// version.
	Version uint64
	// Ingests is Version, and Errors counts how many of those calls
	// ended in an error.
	Ingests int64
	Errors  int64
	// Bytes counts the decoded payload bytes finished ingests read.
	Bytes int64
	// RateLimited counts ingest calls rejected by the quota.
	RateLimited int64
	// Quota is the collection's current ingest rate limit (zero =
	// unlimited).
	Quota Quota
	// Renders counts the renderings WriteSchema made of the forms it
	// keeps: one per read that found no kept rendering, or found the
	// structure changed since it was made.
	Renders int64
	// Pipeline is the collection's cumulative pipeline flight recorder:
	// the deltas of every finished ingest plus the collector's read-side
	// counters. Once ingest quiesces it reconciles exactly with the sum
	// of the per-call IngestResult.Stats deltas (plus the reads' seals,
	// fuses and fuse clock).
	Pipeline infer.StatsSnapshot
}

// WriteSchema writes the named collection's schema to w in one of
// core.OutputForms, byte for byte what core.Inference.WriteSchema makes
// of a fresh Get's type, and reports whether the collection exists. A
// form that reads no counts is written from the kept rendering while
// the collector says its structure epoch holds — a read of a settled
// collection seals and allocates nothing — and rendered and kept anew
// otherwise. Any other form seals and renders on every read, as Get
// does; no read evicts a kept rendering.
func (r *Registry) WriteSchema(w io.Writer, name, form string) (bool, error) {
	c := r.lookup(name)
	if c == nil {
		return false, nil
	}
	i := core.FormIndex(form)
	if i < 0 || core.OutputForms[i].Counts {
		t, _ := c.col.Snapshot()
		return true, (&core.Inference{Type: t}).WriteSchema(w, form)
	}
	c.render.mu.Lock()
	k := &c.render.kept[i]
	if k.b == nil || !c.col.StructureHolds(k.epoch) {
		t, epoch := c.col.SnapshotEpoch()
		var b bytes.Buffer
		_ = (&core.Inference{Type: t}).WriteSchema(&b, form) // a bytes.Buffer does not fail
		k.epoch, k.b = epoch, b.Bytes()
		c.renders.Add(1)
	}
	b := k.b
	c.render.mu.Unlock()
	_, err := w.Write(b)
	return true, err
}

// Get returns a snapshot of the named collection. A quiet collection
// answers from the collector's cache; after an ingest the read seals
// what changed (and fuses, when several shards hold data), holding each
// shard's lock only for its seal.
func (r *Registry) Get(name string) (Snapshot, bool) {
	c := r.lookup(name)
	if c == nil {
		return Snapshot{}, false
	}
	return c.snapshot(), true
}

// lookup returns the named collection, nil when there is none.
func (r *Registry) lookup(name string) *collection {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.cols[name]
}

func (c *collection) snapshot() Snapshot {
	// Version before type: the schema then subsumes everything the
	// version claims (never the reverse).
	v := c.version.Load()
	t, docs := c.col.Snapshot()
	return Snapshot{
		Name:        c.name,
		Equiv:       c.equiv,
		Type:        t,
		Docs:        docs,
		Version:     v,
		Ingests:     int64(v),
		Errors:      c.errors.Load(),
		Bytes:       c.bytesIn.Load(),
		RateLimited: c.limited.Load(),
		Quota:       c.lim.quota(),
		Renders:     c.renders.Load(),
		Pipeline:    c.stats.Snapshot(),
	}
}

// Delete removes the named collection, reporting whether it existed. It
// waits for in-flight ingests into the collection to finish (their
// documents die with it); ingests that resolve the name afterwards
// create a fresh, empty collection. The collector is dropped as it
// stands — sealing and fusing it would build a schema nobody receives.
// Snapshots taken before the delete stay valid — sealed types are
// immutable and never alias collector state.
func (r *Registry) Delete(name string) bool {
	r.mu.Lock()
	c := r.cols[name]
	delete(r.cols, name)
	r.mu.Unlock()
	if c == nil {
		return false
	}
	c.life.Lock()
	c.closed = true
	c.life.Unlock()
	return true
}

// List snapshots every collection, sorted by name.
func (r *Registry) List() []Snapshot {
	r.mu.RLock()
	cols := slices.Collect(maps.Values(r.cols))
	r.mu.RUnlock()
	out := make([]Snapshot, len(cols))
	for i, c := range cols {
		out[i] = c.snapshot()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Stats aggregates the registry.
type Stats struct {
	Collections int
	Docs        int64
	Ingests     int64
	Errors      int64
	// Bytes is the decoded payload bytes read by finished ingests
	// across live collections.
	Bytes int64
	// RateLimited counts ingest calls rejected by collection quotas.
	RateLimited int64
	// SchemaNodes is the total node count of the sealed snapshot
	// schemas across all collections — the aggregate schema size the
	// registry currently serves.
	SchemaNodes int
	// Renders sums the live collections' Snapshot.Renders.
	Renders int64
	// Pipeline aggregates the live collections' pipeline flight
	// recorders (see Snapshot.Pipeline).
	Pipeline infer.StatsSnapshot
}

// Stats returns registry-wide aggregates. The schema sizes come from
// the same sealed (and memoised) snapshots Get/List serve, so a quiet
// registry reports them without re-fusing.
func (r *Registry) Stats() Stats {
	var s Stats
	for _, snap := range r.List() {
		s.Collections++
		s.Docs += snap.Docs
		s.Ingests += snap.Ingests
		s.Errors += snap.Errors
		s.Bytes += snap.Bytes
		s.RateLimited += snap.RateLimited
		s.SchemaNodes += snap.Type.Size()
		s.Renders += snap.Renders
		s.Pipeline.Add(snap.Pipeline)
	}
	return s
}

// Close drops every collection, unfolded like Delete. The caller must
// have stopped ingesting; snapshots taken before Close stay valid (types
// are immutable), but the registry must not be used afterwards.
func (r *Registry) Close() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.cols = make(map[string]*collection)
}
