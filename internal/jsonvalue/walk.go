package jsonvalue

// Paths returns every root-to-leaf field path occurring in v, rendered
// as dot-separated field names with array traversal rendered as "[]".
// It is the path vocabulary used by the skeleton and profiling modules.
func Paths(v *Value) []string {
	var out []string
	var rec func(v *Value, prefix string)
	rec = func(v *Value, prefix string) {
		switch v.Kind() {
		case Object:
			for _, f := range v.Fields() {
				p := f.Name
				if prefix != "" {
					p = prefix + "." + f.Name
				}
				if f.Value.Kind() == Object || f.Value.Kind() == Array {
					rec(f.Value, p)
				} else {
					out = append(out, p)
				}
			}
			if v.Len() == 0 && prefix != "" {
				out = append(out, prefix)
			}
		case Array:
			p := prefix + "[]"
			leafy := true
			for _, e := range v.Elems() {
				if e.Kind() == Object || e.Kind() == Array {
					leafy = false
					rec(e, p)
				}
			}
			if (leafy && v.Len() > 0) || v.Len() == 0 {
				out = append(out, p)
			}
		default:
			if prefix != "" {
				out = append(out, prefix)
			}
		}
	}
	rec(v, "")
	return dedupeStrings(out)
}

func dedupeStrings(in []string) []string {
	seen := make(map[string]struct{}, len(in))
	out := in[:0]
	for _, s := range in {
		if _, dup := seen[s]; !dup {
			seen[s] = struct{}{}
			out = append(out, s)
		}
	}
	return out
}
