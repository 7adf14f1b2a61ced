// core.go holds the whole facade; see doc.go for the package story.

package core

import (
	"bytes"
	"fmt"
	"io"
	"os"

	"repro/internal/codegen"
	"repro/internal/infer"
	"repro/internal/joi"
	"repro/internal/jsonschema"
	"repro/internal/jsontext"
	"repro/internal/jsonvalue"
	"repro/internal/jsound"
	"repro/internal/mongoschema"
	"repro/internal/skinfer"
	"repro/internal/sparkinfer"
	"repro/internal/translate"
	"repro/internal/typelang"
)

// The golden tests pin schemas inferred from the checked-in fixtures;
// regenerate the fixtures (deterministic seeds) alongside any golden
// update.
//go:generate go run repro/cmd/jsfixtures -dir ../../testdata

// Value re-exports the JSON data model.
type Value = jsonvalue.Value

// Type re-exports the type algebra.
type Type = typelang.Type

// ParseString parses one JSON string.
func ParseString(s string) (*Value, error) { return jsontext.ParseString(s) }

// ParseCollection parses NDJSON (one document per line).
func ParseCollection(data []byte) ([]*Value, error) { return jsontext.ParseLines(data) }

// MarshalIndent serialises a value with indentation.
func MarshalIndent(v *Value, indent string) []byte { return jsontext.MarshalIndent(v, indent) }

// Validator is the common face of the §2 schema languages: JSON
// Schema, Joi and JSound all validate the same documents with
// different capability envelopes (E9 measures them side by side).
type Validator interface {
	// Name identifies the formalism.
	Name() string
	// Accepts reports whether the document satisfies the schema.
	Accepts(v *Value) bool
	// Explain returns human-readable violations (empty when valid).
	Explain(v *Value) []string
}

type jsonSchemaValidator struct{ s *jsonschema.Schema }

func (w jsonSchemaValidator) Name() string          { return "jsonschema" }
func (w jsonSchemaValidator) Accepts(v *Value) bool { return w.s.Accepts(v) }
func (w jsonSchemaValidator) Explain(v *Value) []string {
	res := w.s.Validate(v)
	out := make([]string, 0, len(res.Errors))
	for _, e := range res.Errors {
		out = append(out, e.Error())
	}
	return out
}

// CompileJSONSchema builds a Validator from a JSON Schema document.
func CompileJSONSchema(doc *Value) (Validator, error) {
	s, err := jsonschema.Compile(doc)
	if err != nil {
		return nil, err
	}
	return jsonSchemaValidator{s}, nil
}

type joiValidator struct{ s *joi.Schema }

func (w joiValidator) Name() string          { return "joi" }
func (w joiValidator) Accepts(v *Value) bool { return w.s.Accepts(v) }
func (w joiValidator) Explain(v *Value) []string {
	errs := w.s.Validate(v)
	out := make([]string, 0, len(errs))
	for _, e := range errs {
		out = append(out, e.Error())
	}
	return out
}

// WrapJoi adapts a Joi builder schema to the Validator interface.
func WrapJoi(s *joi.Schema) Validator { return joiValidator{s} }

type jsoundValidator struct{ s *jsound.Schema }

func (w jsoundValidator) Name() string          { return "jsound" }
func (w jsoundValidator) Accepts(v *Value) bool { return w.s.Accepts(v) }
func (w jsoundValidator) Explain(v *Value) []string {
	errs := w.s.Validate(v)
	out := make([]string, 0, len(errs))
	for _, e := range errs {
		out = append(out, e.Error())
	}
	return out
}

// CompileJSound builds a Validator from a JSound compact schema.
func CompileJSound(doc *Value) (Validator, error) {
	s, err := jsound.Compile(doc)
	if err != nil {
		return nil, err
	}
	return jsoundValidator{s}, nil
}

type typeValidator struct{ t *Type }

func (w typeValidator) Name() string          { return "typelang" }
func (w typeValidator) Accepts(v *Value) bool { return w.t.Matches(v) }
func (w typeValidator) Explain(v *Value) []string {
	if w.t.Matches(v) {
		return nil
	}
	return []string{fmt.Sprintf("value does not match type %s", w.t)}
}

// WrapType adapts an inferred type to the Validator interface.
func WrapType(t *Type) Validator { return typeValidator{t} }

// Engine selects a schema-inference tool from §4.1.
type Engine uint8

// The inference engines the tutorial compares.
const (
	// ParametricK is Baazizi et al.'s inference under kind equivalence.
	ParametricK Engine = iota
	// ParametricL is the same under label equivalence.
	ParametricL
	// Spark is the Spark Dataframe schema extraction.
	Spark
	// Skinfer is Scrapinghub's record-only-merge inference.
	Skinfer
)

// String names the engine.
func (e Engine) String() string {
	switch e {
	case ParametricK:
		return "parametric-K"
	case ParametricL:
		return "parametric-L"
	case Spark:
		return "spark"
	case Skinfer:
		return "skinfer"
	default:
		return "unknown"
	}
}

// Inference is the result of InferSchema: the same schema in every
// representation the library speaks.
type Inference struct {
	Engine Engine
	// Type is the schema in the shared algebra (for Skinfer this is a
	// best-effort conversion of its JSON Schema output).
	Type *Type
	// Precision is the E2 metric against the input (-1 when a streamed
	// single pass could not grade it).
	Precision float64

	// native is Skinfer's own JSON Schema output; nil for every engine
	// whose document is a rendering of Type.
	native *Value
}

// Size is the E1 metric: the number of nodes of Type. It is counted on
// each call, a walk of the whole schema, so callers that never print it
// never pay for it.
func (inf *Inference) Size() int { return inf.Type.Size() }

// JSONSchema returns the schema as a JSON Schema document. It is
// rendered from Type on each call — on a large schema as costly as a
// pass over the data, so callers that never print it never pay for it —
// except for Skinfer, whose document is its native output.
func (inf *Inference) JSONSchema() *Value {
	if inf.native != nil {
		return inf.native
	}
	return jsonschema.FromType(inf.Type)
}

// OutputForm is one output form jsinfer prints and jsinferd serves:
// its name (jsinfer's -output, the daemon's ?output=), the daemon's
// media type for it, whether its bytes read counts or array bounds (if
// not, they depend on the structure alone, and the registry keeps
// them), and its writer.
type OutputForm struct {
	Name, ContentType string
	Counts            bool
	write             func(inf *Inference, w io.Writer) error
}

// OutputForms are the forms WriteSchema writes, the one place their
// bytes are decided: "type" and "counted" are the type expression
// without and with its counting annotations, streamed by Type.Render
// (ends in a newline); "jsonschema" the JSON Schema document (Skinfer's
// native one, every other engine's rendered from Type), indented two
// spaces, then a newline; "typescript" and "swift" the declarations
// codegen generates for a root named Root, exactly as generated.
var OutputForms = [...]OutputForm{
	{"type", textPlain, false, func(inf *Inference, w io.Writer) error { return inf.Type.Render(w, false) }},
	{"counted", textPlain, true, func(inf *Inference, w io.Writer) error { return inf.Type.Render(w, true) }},
	{"jsonschema", "application/json", false, func(inf *Inference, w io.Writer) error {
		_, err := w.Write(append(jsontext.MarshalIndent(inf.JSONSchema(), "  "), '\n'))
		return err
	}},
	{"typescript", textPlain, false, func(inf *Inference, w io.Writer) error {
		_, err := io.WriteString(w, TypeToTypeScript("Root", inf.Type))
		return err
	}},
	{"swift", textPlain, false, func(inf *Inference, w io.Writer) error {
		_, err := io.WriteString(w, TypeToSwift("Root", inf.Type))
		return err
	}},
}

const textPlain = "text/plain; charset=utf-8"

// FormIndex returns the index in OutputForms of the form named name, or
// -1 when there is none.
func FormIndex(name string) int {
	for i := range OutputForms {
		if OutputForms[i].Name == name {
			return i
		}
	}
	return -1
}

// FormNames are the names of OutputForms, in order.
func FormNames() (names []string) {
	for _, f := range OutputForms {
		names = append(names, f.Name)
	}
	return names
}

// WriteSchema writes the schema to w in the output form named form (see
// OutputForms). An unknown form writes nothing and returns an error;
// otherwise the error is w's.
func (inf *Inference) WriteSchema(w io.Writer, form string) error {
	if i := FormIndex(form); i >= 0 {
		return OutputForms[i].write(inf, w)
	}
	return fmt.Errorf("unknown output form %q", form)
}

// Simplify replaces Type with typelang.Simplify(Type), so every output
// form shows the same schema. Skinfer's document is its native output,
// not a rendering of Type, and is kept.
func (inf *Inference) Simplify() {
	inf.Type = typelang.Simplify(inf.Type)
}

// equivFor maps an engine to the equivalence its streamed pass runs
// under: Spark's schema is a projection of K's.
func equivFor(engine Engine) (typelang.Equiv, bool) {
	switch engine {
	case ParametricK, Spark:
		return typelang.EquivKind, true
	case ParametricL:
		return typelang.EquivLabel, true
	default:
		return 0, false
	}
}

// InferSchema runs the selected engine over a materialised collection
// and grades the result against it (Precision). Every engine runs
// sequentially: the parametric ones fold with infer.Infer.
func InferSchema(docs []*Value, engine Engine) (*Inference, error) {
	out := &Inference{Engine: engine}
	switch engine {
	case ParametricK, ParametricL:
		eq, _ := equivFor(engine)
		out.Type = infer.Infer(docs, infer.Options{Equiv: eq})
	case Spark:
		out.Type = sparkinfer.Infer(docs).ToTypelang()
	case Skinfer:
		out.native = skinfer.Infer(docs)
		s, err := jsonschema.Compile(out.native)
		if err != nil {
			return nil, fmt.Errorf("core: skinfer produced uncompilable schema: %w", err)
		}
		out.Type = jsonschema.ToType(s)
	default:
		return nil, fmt.Errorf("core: unknown engine %d", engine)
	}
	out.Precision = typelang.Precision(out.Type, docs)
	return out, nil
}

// StreamOptions tune the streamed inference engine.
type StreamOptions struct {
	// Workers bounds the parallel window workers; 0 means GOMAXPROCS.
	Workers int
	// ChunkBytes, when positive, is the least byte length of the
	// windows the input is cut into, at every worker count: a window
	// ends at the first document end at or past it — the knob that lets
	// GB-scale inputs amortise per-window overhead over far larger
	// windows. 0 keeps the defaults: 4 MiB at one worker, 256
	// documents at several.
	ChunkBytes int
	// Stats, when non-nil, receives the pipeline's stage counters and
	// clocks (see infer.PipelineStats); nil keeps recording entirely
	// off the hot path.
	Stats *PipelineStats
}

// PipelineStats re-exports the streamed engines' flight recorder, and
// StatsSnapshot its point-in-time copy.
type PipelineStats = infer.PipelineStats

// StatsSnapshot is a point-in-time copy of PipelineStats counters.
type StatsSnapshot = infer.StatsSnapshot

// streamed is the one constructor of a streamed Inference: it rejects
// Skinfer, which needs the whole collection, runs the pass under the
// engine's equivalence, projects Spark's schema from the K type, and
// wraps whatever type came back — on a decode error too, where it covers
// every document before the error. Precision is -1: grading needs a
// second pass over data the stream no longer holds (StreamPrecisionFiles).
func streamed(engine Engine, opts StreamOptions, pass func(infer.Options) (*Type, int, error)) (*Inference, int, error) {
	eq, ok := equivFor(engine)
	if !ok {
		return nil, 0, fmt.Errorf("core: engine %s cannot infer from a stream", engine)
	}
	t, n, err := pass(infer.Options{Equiv: eq, Workers: opts.Workers, ChunkBytes: opts.ChunkBytes, Stats: opts.Stats})
	if engine == Spark {
		t = sparkinfer.FromType(t).ToTypelang()
	}
	return &Inference{Engine: engine, Type: t, Precision: -1}, n, err
}

// InferSchemaStreamWith infers a parametric schema from a stream of
// JSON documents (NDJSON or concatenated JSON) on r without
// materialising the collection, so the input may be far larger than
// memory. It returns the inference and the number of documents
// consumed; a decode error carries absolute stream offsets and comes
// with the Inference of the documents before it, mirroring
// infer.InferStream.
func InferSchemaStreamWith(r io.Reader, engine Engine, opts StreamOptions) (*Inference, int, error) {
	return streamed(engine, opts, func(o infer.Options) (*Type, int, error) {
		return infer.InferStream(r, o)
	})
}

// StreamPrecisionFiles grades an inferred schema against the documents
// in the named files in a bounded-memory pass: documents are decoded one
// at a time and folded into one precision accumulator, never held
// together. It is the explicit second pass that fills the precision
// column a streamed inference cannot compute in its single pass. It
// returns the precision and the number of documents graded; a decode
// error names the offending file.
func StreamPrecisionFiles(files []string, t *Type) (float64, int, error) {
	var acc typelang.PrecisionAcc
	// No file named is no document: there is no stdin to grade.
	err := eachDocument(files, bytes.NewReader(nil), func(v *Value) { acc.Add(t, v) })
	return acc.Value(), acc.Docs(), err
}

// ReadCollection materialises the documents of the named files, read in
// turn as one collection, or of stdin when no file is named — for the
// engines and tools that need the whole collection (Skinfer, validation,
// translation). A decode error names its file.
func ReadCollection(files []string, stdin io.Reader) ([]*Value, error) {
	var docs []*Value
	if err := eachDocument(files, stdin, func(v *Value) { docs = append(docs, v) }); err != nil {
		return nil, err
	}
	return docs, nil
}

// eachDocument is the one per-document loop over a collection on disk:
// it decodes the named files in turn, or stdin when none is named, and
// hands add each document as it is decoded. A decode error is prefixed
// with its file's name; a file that cannot be opened returns its
// *fs.PathError.
func eachDocument(files []string, stdin io.Reader, add func(*Value)) error {
	if len(files) == 0 {
		return decodeEach(stdin, add)
	}
	for _, name := range files {
		f, err := os.Open(name)
		if err != nil {
			return err
		}
		err = decodeEach(f, add)
		f.Close()
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
	}
	return nil
}

func decodeEach(r io.Reader, add func(*Value)) error {
	dec := jsontext.NewDecoder(r)
	for {
		v, err := dec.Decode()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		add(v)
	}
}

// InferSchemaStreamFilesWith is InferSchemaStreamWith over the named
// files, one collection through one run (infer.InferStreamFiles): an
// error names its file, and a file that cannot be opened returns its
// *fs.PathError.
func InferSchemaStreamFilesWith(files []string, engine Engine, opts StreamOptions) (*Inference, int, error) {
	return streamed(engine, opts, func(o infer.Options) (*Type, int, error) { return infer.InferStreamFiles(files, o) })
}

// AnalyzeStreaming runs the mongodb-schema style analyzer over a
// collection and returns its JSON report.
func AnalyzeStreaming(docs []*Value) *Value {
	a := mongoschema.NewAnalyzer()
	for _, d := range docs {
		a.Analyze(d)
	}
	return a.Schema()
}

// TypeToTypeScript emits TypeScript declarations for a type.
func TypeToTypeScript(name string, t *Type) string { return codegen.TypeScript(name, t) }

// TypeToSwift emits Swift declarations for a type.
func TypeToSwift(name string, t *Type) string { return codegen.Swift(name, t) }

// TypeToJSONSchema renders a type as a JSON Schema document.
func TypeToJSONSchema(t *Type) *Value { return jsonschema.FromType(t) }

// Translation bundles the two schema-driven target formats of §5.
type Translation struct {
	Schema *Type
	// RowBinary is the Avro-like row encoding of the collection.
	RowBinary []byte
	// Columnar is the Parquet-like column blob.
	Columnar []byte
	// RawJSON is the NDJSON baseline for size comparison.
	RawJSON []byte
}

// Translate infers a schema (parametric L) and translates the
// collection into both binary formats.
func Translate(docs []*Value) (*Translation, error) {
	schema := infer.Infer(docs, infer.Options{Equiv: typelang.EquivLabel})
	rows, err := translate.EncodeCollection(docs, schema)
	if err != nil {
		return nil, err
	}
	cs, err := translate.Shred(docs, schema)
	if err != nil {
		return nil, err
	}
	return &Translation{
		Schema:    schema,
		RowBinary: rows,
		Columnar:  cs.Bytes(),
		RawJSON:   jsontext.MarshalLines(docs),
	}, nil
}

// RestoreRows decodes a row-binary translation back into documents.
func RestoreRows(tr *Translation) ([]*Value, error) {
	return translate.DecodeCollection(tr.RowBinary, tr.Schema)
}

// RestoreColumnar decodes a columnar translation back into documents.
func RestoreColumnar(tr *Translation) ([]*Value, error) {
	cs, err := translate.FromBytes(tr.Columnar, tr.Schema)
	if err != nil {
		return nil, err
	}
	return cs.Reassemble()
}
