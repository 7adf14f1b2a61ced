package translate

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"repro/internal/jsontext"
	"repro/internal/jsonvalue"
	"repro/internal/typelang"
)

func appendCompactJSON(dst []byte, v *jsonvalue.Value) []byte {
	return jsontext.AppendValue(dst, v, jsontext.WriteOptions{})
}

func parseCompactJSON(data []byte) (*jsonvalue.Value, error) {
	return jsontext.Parse(data)
}

// Column is one byte-buffer of the columnar layout. Buffers are FIFO
// streams written and read in document walk order, which is what lets
// reassembly work for arbitrary nesting without Dremel-style
// repetition levels (a simplification relative to Parquet, recorded in
// docs/EXPERIMENTS.md: per-document varint counts play the role of repetition
// levels, presence bytes the role of definition levels).
type Column struct {
	Path string
	Buf  []byte
	pos  int // read cursor
}

func (c *Column) reset() { c.pos = 0 }

// ColumnSet is a shredded collection.
type ColumnSet struct {
	Schema  *typelang.Type
	NumDocs int
	columns map[string]*Column
	order   []string
}

func newColumnSet(schema *typelang.Type) *ColumnSet {
	return &ColumnSet{Schema: schema, columns: make(map[string]*Column)}
}

func (cs *ColumnSet) col(path string) *Column {
	c, ok := cs.columns[path]
	if !ok {
		c = &Column{Path: path}
		cs.columns[path] = c
		cs.order = append(cs.order, path)
	}
	return c
}

// Columns returns the column paths in creation order.
func (cs *ColumnSet) Columns() []string {
	out := make([]string, len(cs.order))
	copy(out, cs.order)
	return out
}

// EncodedSize is the total payload size in bytes plus a footer charge
// for column names — the size measure of E10.
func (cs *ColumnSet) EncodedSize() int {
	n := 0
	for _, c := range cs.columns {
		n += len(c.Buf) + len(c.Path) + 8
	}
	return n
}

// Shred translates a collection into columns under schema. Every
// document must match the schema (as inference guarantees for the
// collection it was inferred from).
func Shred(docs []*jsonvalue.Value, schema *typelang.Type) (*ColumnSet, error) {
	cs := newColumnSet(schema)
	for i, d := range docs {
		if err := cs.shredValue(d, schema, ""); err != nil {
			return nil, fmt.Errorf("doc %d: %w", i, err)
		}
		cs.NumDocs++
	}
	return cs, nil
}

func (cs *ColumnSet) shredValue(v *jsonvalue.Value, t *typelang.Type, path string) error {
	switch t.Kind {
	case typelang.KNull:
		if v.Kind() != jsonvalue.Null {
			return typeErr(v, t)
		}
		return nil
	case typelang.KBool:
		if v.Kind() != jsonvalue.Bool {
			return typeErr(v, t)
		}
		c := cs.col(path)
		if v.Bool() {
			c.Buf = append(c.Buf, 1)
		} else {
			c.Buf = append(c.Buf, 0)
		}
		return nil
	case typelang.KInt:
		if !v.IsInt() {
			return typeErr(v, t)
		}
		c := cs.col(path)
		c.Buf = binary.AppendVarint(c.Buf, v.Int())
		return nil
	case typelang.KNum:
		if v.Kind() != jsonvalue.Number {
			return typeErr(v, t)
		}
		c := cs.col(path)
		c.Buf = binary.LittleEndian.AppendUint64(c.Buf, math.Float64bits(v.Num()))
		return nil
	case typelang.KStr:
		if v.Kind() != jsonvalue.String {
			return typeErr(v, t)
		}
		c := cs.col(path)
		c.Buf = binary.AppendUvarint(c.Buf, uint64(len(v.Str())))
		c.Buf = append(c.Buf, v.Str()...)
		return nil
	case typelang.KAny:
		c := cs.col(path)
		raw := appendCompactJSON(nil, v)
		c.Buf = binary.AppendUvarint(c.Buf, uint64(len(raw)))
		c.Buf = append(c.Buf, raw...)
		return nil
	case typelang.KArray:
		if v.Kind() != jsonvalue.Array {
			return typeErr(v, t)
		}
		lenCol := cs.col(path + "[]#len")
		lenCol.Buf = binary.AppendUvarint(lenCol.Buf, uint64(v.Len()))
		for _, e := range v.Elems() {
			if err := cs.shredValue(e, t.Elem, path+"[]"); err != nil {
				return err
			}
		}
		return nil
	case typelang.KRecord:
		if v.Kind() != jsonvalue.Object {
			return typeErr(v, t)
		}
		for _, f := range t.Fields {
			fieldPath := joinCol(path, f.Name)
			fv, present := v.Get(f.Name)
			if f.Optional {
				defCol := cs.col(fieldPath + "#def")
				if present {
					defCol.Buf = append(defCol.Buf, 1)
				} else {
					defCol.Buf = append(defCol.Buf, 0)
					continue
				}
			} else if !present {
				return fmt.Errorf("translate: missing required field %q", f.Name)
			}
			if err := cs.shredValue(fv, f.Type, fieldPath); err != nil {
				return err
			}
		}
		return nil
	case typelang.KUnion:
		for i, alt := range t.Alts {
			if alt.Matches(v) {
				tagCol := cs.col(path + "#tag")
				tagCol.Buf = binary.AppendUvarint(tagCol.Buf, uint64(i))
				return cs.shredValue(v, alt, fmt.Sprintf("%s@%d", path, i))
			}
		}
		return fmt.Errorf("translate: value matches no union branch of %s at %q", t, path)
	default:
		return fmt.Errorf("translate: cannot shred under %s", t.Kind)
	}
}

func joinCol(base, name string) string {
	if base == "" {
		return name
	}
	return base + "." + name
}

// Reassemble reconstructs the documents from the columns (the
// round-trip direction; a real engine would usually scan columns
// directly instead).
func (cs *ColumnSet) Reassemble() ([]*jsonvalue.Value, error) {
	for _, c := range cs.columns {
		c.reset()
	}
	out := make([]*jsonvalue.Value, 0, cs.NumDocs)
	for i := 0; i < cs.NumDocs; i++ {
		v, err := cs.readValue(cs.Schema, "")
		if err != nil {
			return nil, fmt.Errorf("doc %d: %w", i, err)
		}
		out = append(out, v)
	}
	return out, nil
}

func (cs *ColumnSet) readValue(t *typelang.Type, path string) (*jsonvalue.Value, error) {
	switch t.Kind {
	case typelang.KNull:
		return jsonvalue.NewNull(), nil
	case typelang.KBool:
		b, err := cs.readByte(path)
		if err != nil {
			return nil, err
		}
		return jsonvalue.NewBool(b != 0), nil
	case typelang.KInt:
		c, err := cs.mustCol(path)
		if err != nil {
			return nil, err
		}
		n, sz := binary.Varint(c.Buf[c.pos:])
		if sz <= 0 {
			return nil, truncated(path)
		}
		c.pos += sz
		return jsonvalue.NewInt(n), nil
	case typelang.KNum:
		c, err := cs.mustCol(path)
		if err != nil {
			return nil, err
		}
		if c.pos+8 > len(c.Buf) {
			return nil, truncated(path)
		}
		f := math.Float64frombits(binary.LittleEndian.Uint64(c.Buf[c.pos:]))
		c.pos += 8
		return jsonvalue.NewNumber(f), nil
	case typelang.KStr:
		c, err := cs.mustCol(path)
		if err != nil {
			return nil, err
		}
		n, sz := binary.Uvarint(c.Buf[c.pos:])
		if sz <= 0 || c.pos+sz+int(n) > len(c.Buf) {
			return nil, truncated(path)
		}
		s := string(c.Buf[c.pos+sz : c.pos+sz+int(n)])
		c.pos += sz + int(n)
		return jsonvalue.NewString(s), nil
	case typelang.KAny:
		c, err := cs.mustCol(path)
		if err != nil {
			return nil, err
		}
		n, sz := binary.Uvarint(c.Buf[c.pos:])
		if sz <= 0 || c.pos+sz+int(n) > len(c.Buf) {
			return nil, truncated(path)
		}
		v, perr := parseCompactJSON(c.Buf[c.pos+sz : c.pos+sz+int(n)])
		if perr != nil {
			return nil, perr
		}
		c.pos += sz + int(n)
		return v, nil
	case typelang.KArray:
		n, err := cs.readUvarint(path + "[]#len")
		if err != nil {
			return nil, err
		}
		elems := make([]*jsonvalue.Value, 0, n)
		for i := uint64(0); i < n; i++ {
			e, err := cs.readValue(t.Elem, path+"[]")
			if err != nil {
				return nil, err
			}
			elems = append(elems, e)
		}
		return jsonvalue.NewArray(elems...), nil
	case typelang.KRecord:
		fields := make([]jsonvalue.Field, 0, len(t.Fields))
		for _, f := range t.Fields {
			fieldPath := joinCol(path, f.Name)
			if f.Optional {
				def, err := cs.readByte(fieldPath + "#def")
				if err != nil {
					return nil, err
				}
				if def == 0 {
					continue
				}
			}
			fv, err := cs.readValue(f.Type, fieldPath)
			if err != nil {
				return nil, err
			}
			fields = append(fields, jsonvalue.Field{Name: f.Name, Value: fv})
		}
		return jsonvalue.NewObject(fields...), nil
	case typelang.KUnion:
		tag, err := cs.readUvarint(path + "#tag")
		if err != nil {
			return nil, err
		}
		if tag >= uint64(len(t.Alts)) {
			return nil, fmt.Errorf("translate: union tag %d out of range at %q", tag, path)
		}
		return cs.readValue(t.Alts[tag], fmt.Sprintf("%s@%d", path, tag))
	default:
		return nil, fmt.Errorf("translate: cannot read under %s", t.Kind)
	}
}

func (cs *ColumnSet) mustCol(path string) (*Column, error) {
	c, ok := cs.columns[path]
	if !ok {
		return nil, fmt.Errorf("translate: missing column %q", path)
	}
	return c, nil
}

func (cs *ColumnSet) readByte(path string) (byte, error) {
	c, err := cs.mustCol(path)
	if err != nil {
		return 0, err
	}
	if c.pos >= len(c.Buf) {
		return 0, truncated(path)
	}
	b := c.Buf[c.pos]
	c.pos++
	return b, nil
}

func (cs *ColumnSet) readUvarint(path string) (uint64, error) {
	c, err := cs.mustCol(path)
	if err != nil {
		return 0, err
	}
	n, sz := binary.Uvarint(c.Buf[c.pos:])
	if sz <= 0 {
		return 0, truncated(path)
	}
	c.pos += sz
	return n, nil
}

func truncated(path string) error {
	return fmt.Errorf("translate: truncated column %q", path)
}

// ScanInts iterates every value of an Int column without touching any
// other column — the columnar scan the E10 benchmark measures against
// re-parsing JSON.
func (cs *ColumnSet) ScanInts(path string, fn func(int64)) error {
	c, err := cs.mustCol(path)
	if err != nil {
		return err
	}
	for pos := 0; pos < len(c.Buf); {
		n, sz := binary.Varint(c.Buf[pos:])
		if sz <= 0 {
			return truncated(path)
		}
		fn(n)
		pos += sz
	}
	return nil
}

// ScanNums iterates every value of a Num column.
func (cs *ColumnSet) ScanNums(path string, fn func(float64)) error {
	c, err := cs.mustCol(path)
	if err != nil {
		return err
	}
	if len(c.Buf)%8 != 0 {
		return truncated(path)
	}
	for pos := 0; pos < len(c.Buf); pos += 8 {
		fn(math.Float64frombits(binary.LittleEndian.Uint64(c.Buf[pos:])))
	}
	return nil
}

// ScanStrings iterates every value of a Str column.
func (cs *ColumnSet) ScanStrings(path string, fn func(string)) error {
	c, err := cs.mustCol(path)
	if err != nil {
		return err
	}
	for pos := 0; pos < len(c.Buf); {
		n, sz := binary.Uvarint(c.Buf[pos:])
		if sz <= 0 || pos+sz+int(n) > len(c.Buf) {
			return truncated(path)
		}
		fn(string(c.Buf[pos+sz : pos+sz+int(n)]))
		pos += sz + int(n)
	}
	return nil
}

// Bytes serialises the column set to one self-describing blob:
// varint column count, then per column varint name length, name,
// varint payload length, payload, preceded by a varint document count.
func (cs *ColumnSet) Bytes() []byte {
	var out []byte
	out = binary.AppendUvarint(out, uint64(cs.NumDocs))
	names := cs.Columns()
	sort.Strings(names)
	out = binary.AppendUvarint(out, uint64(len(names)))
	for _, name := range names {
		c := cs.columns[name]
		out = binary.AppendUvarint(out, uint64(len(name)))
		out = append(out, name...)
		out = binary.AppendUvarint(out, uint64(len(c.Buf)))
		out = append(out, c.Buf...)
	}
	return out
}

// FromBytes deserialises a blob produced by Bytes; the schema must be
// supplied separately, as with Parquet footer metadata kept elsewhere.
func FromBytes(data []byte, schema *typelang.Type) (*ColumnSet, error) {
	cs := newColumnSet(schema)
	nd, sz := binary.Uvarint(data)
	if sz <= 0 {
		return nil, fmt.Errorf("translate: bad blob header")
	}
	data = data[sz:]
	cs.NumDocs = int(nd)
	nc, sz := binary.Uvarint(data)
	if sz <= 0 {
		return nil, fmt.Errorf("translate: bad blob column count")
	}
	data = data[sz:]
	for i := uint64(0); i < nc; i++ {
		nameLen, sz := binary.Uvarint(data)
		if sz <= 0 || uint64(len(data)-sz) < nameLen {
			return nil, fmt.Errorf("translate: bad column name")
		}
		name := string(data[sz : sz+int(nameLen)])
		data = data[sz+int(nameLen):]
		payloadLen, sz := binary.Uvarint(data)
		if sz <= 0 || uint64(len(data)-sz) < payloadLen {
			return nil, fmt.Errorf("translate: bad column payload")
		}
		c := cs.col(name)
		c.Buf = append(c.Buf, data[sz:sz+int(payloadLen)]...)
		data = data[sz+int(payloadLen):]
	}
	return cs, nil
}
