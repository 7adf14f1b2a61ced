// Package genjson generates the synthetic JSON collections used by the
// experiment harness. The tutorial's JSON primer (§1) draws its examples
// from public datasets — Twitter API results, New York Times API
// results, GitHub events, and open-data portals (data.gov). Those
// datasets are not redistributable here, so this package generates
// collections exhibiting the same structural phenomena the surveyed
// tools are sensitive to, with explicit knobs:
//
//   - optional fields with controlled presence probability (the
//     phenomenon skeletons and mongodb-schema probabilities summarise);
//   - type drift, where the same field carries different types in
//     different documents (what defeats Spark's union-free inference);
//   - shape clusters, i.e. a mixture of distinct record layouts (what
//     schema profiling must separate);
//   - nested records inside arrays (what Skinfer's merge cannot reach);
//   - field-count skew (Zipf-like) for counting-type experiments.
//
// All generators are deterministic given a seed.
package genjson

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"

	"repro/internal/jsonvalue"
)

// ParseSize parses a human-friendly byte size: a bare byte count or a
// number with a K/M/G suffix (optionally followed by B),
// case-insensitive — the format jsgen's -target, jsinfer's -chunk-bytes
// and the benchmark harness all speak. A size that does not fit in an
// int64 is invalid.
func ParseSize(s string) (int64, error) {
	t := strings.TrimSuffix(strings.ToUpper(strings.TrimSpace(s)), "B")
	mult := int64(1)
	switch {
	case strings.HasSuffix(t, "K"):
		mult, t = 1<<10, t[:len(t)-1]
	case strings.HasSuffix(t, "M"):
		mult, t = 1<<20, t[:len(t)-1]
	case strings.HasSuffix(t, "G"):
		mult, t = 1<<30, t[:len(t)-1]
	}
	n, err := strconv.ParseInt(t, 10, 64)
	if err != nil || n <= 0 || n > math.MaxInt64/mult {
		return 0, fmt.Errorf("invalid size %q (want e.g. 64K, 100MB, 1G)", s)
	}
	return n * mult, nil
}

// Generator produces one document per call.
type Generator interface {
	// Name identifies the generator in reports.
	Name() string
	// Generate returns the i-th document, deterministically for a given
	// generator configuration.
	Generate(i int) *jsonvalue.Value
}

// Collection materialises n documents from g.
func Collection(g Generator, n int) []*jsonvalue.Value {
	docs := make([]*jsonvalue.Value, n)
	for i := range docs {
		docs[i] = g.Generate(i)
	}
	return docs
}

// rng returns a deterministic per-document random source: every document
// is independently reproducible, so parallel experiments see identical
// data regardless of generation order.
func rng(seed int64, i int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1e9 + int64(i)))
}

var (
	firstNames = []string{"ada", "grace", "alan", "edsger", "barbara", "donald", "tony", "leslie", "john", "frances"}
	lastNames  = []string{"lovelace", "hopper", "turing", "dijkstra", "liskov", "knuth", "hoare", "lamport", "backus", "allen"}
	words      = []string{"json", "schema", "types", "data", "query", "index", "merge", "parse", "infer", "stream",
		"union", "record", "array", "null", "tuple", "lattice", "walmart", "spark", "mison", "skeleton"}
	cities    = []string{"lisbon", "paris", "pisa", "potenza", "berlin", "nyc", "tokyo", "lima", "oslo", "cairo"}
	langs     = []string{"en", "fr", "it", "pt", "de", "es"}
	eventType = []string{"PushEvent", "PullRequestEvent", "IssuesEvent", "ForkEvent", "WatchEvent", "ReleaseEvent"}
)

func pick[T any](r *rand.Rand, xs []T) T { return xs[r.Intn(len(xs))] }

func sentence(r *rand.Rand, n int) string {
	s := ""
	for i := 0; i < n; i++ {
		if i > 0 {
			s += " "
		}
		s += pick(r, words)
	}
	return s
}

func isoDate(r *rand.Rand) string {
	return fmt.Sprintf("20%02d-%02d-%02dT%02d:%02d:%02dZ",
		10+r.Intn(10), 1+r.Intn(12), 1+r.Intn(28), r.Intn(24), r.Intn(60), r.Intn(60))
}

// Twitter generates tweet-like documents: a stable core (id, text,
// user record), optional enrichments (coordinates, place,
// retweeted_status), and arrays of nested entity records. Optionality
// and nesting probabilities are the heterogeneity knobs.
type Twitter struct {
	Seed int64
	// OptionalP is the presence probability of each optional field
	// (default 0.5).
	OptionalP float64
	// RetweetP is the probability that the tweet embeds a full
	// retweeted_status record (recursion depth 1), default 0.2.
	RetweetP float64
}

// Name implements Generator.
func (g Twitter) Name() string { return "twitter" }

func (g Twitter) optionalP() float64 {
	if g.OptionalP == 0 {
		return 0.5
	}
	return g.OptionalP
}

func (g Twitter) retweetP() float64 {
	if g.RetweetP == 0 {
		return 0.2
	}
	return g.RetweetP
}

// Generate implements Generator.
func (g Twitter) Generate(i int) *jsonvalue.Value {
	r := rng(g.Seed, i)
	return g.tweet(r, i, true)
}

func (g Twitter) tweet(r *rand.Rand, i int, allowRetweet bool) *jsonvalue.Value {
	fields := []jsonvalue.Field{
		{Name: "id", Value: jsonvalue.NewInt(int64(1e12) + int64(i))},
		{Name: "id_str", Value: jsonvalue.NewString(fmt.Sprintf("%d", int64(1e12)+int64(i)))},
		{Name: "created_at", Value: jsonvalue.NewString(isoDate(r))},
		{Name: "text", Value: jsonvalue.NewString(sentence(r, 3+r.Intn(8)))},
		{Name: "user", Value: g.user(r)},
		{Name: "retweet_count", Value: jsonvalue.NewInt(int64(r.Intn(5000)))},
		{Name: "favorite_count", Value: jsonvalue.NewInt(int64(r.Intn(10000)))},
		{Name: "lang", Value: jsonvalue.NewString(pick(r, langs))},
		{Name: "truncated", Value: jsonvalue.NewBool(r.Intn(2) == 0)},
	}
	p := g.optionalP()
	if r.Float64() < p {
		fields = append(fields, jsonvalue.Field{Name: "coordinates", Value: jsonvalue.ObjectFromPairs(
			"type", "Point",
			"coordinates", []any{r.Float64()*360 - 180, r.Float64()*180 - 90},
		)})
	} else if r.Float64() < 0.5 {
		// Real Twitter data: "coordinates" is often explicitly null.
		fields = append(fields, jsonvalue.Field{Name: "coordinates", Value: jsonvalue.NewNull()})
	}
	if r.Float64() < p {
		fields = append(fields, jsonvalue.Field{Name: "place", Value: jsonvalue.ObjectFromPairs(
			"id", fmt.Sprintf("p%04d", r.Intn(10000)),
			"full_name", pick(r, cities),
			"country_code", pick(r, langs),
		)})
	}
	if r.Float64() < p {
		fields = append(fields, jsonvalue.Field{Name: "in_reply_to_status_id", Value: jsonvalue.NewInt(int64(r.Intn(1 << 30)))})
	}
	fields = append(fields, jsonvalue.Field{Name: "entities", Value: g.entities(r)})
	if allowRetweet && r.Float64() < g.retweetP() {
		fields = append(fields, jsonvalue.Field{Name: "retweeted_status", Value: g.tweet(r, i+1<<20, false)})
	}
	return jsonvalue.NewObject(fields...)
}

func (g Twitter) user(r *rand.Rand) *jsonvalue.Value {
	fields := []jsonvalue.Field{
		{Name: "id", Value: jsonvalue.NewInt(int64(r.Intn(1 << 28)))},
		{Name: "screen_name", Value: jsonvalue.NewString(pick(r, firstNames) + "_" + pick(r, lastNames))},
		{Name: "followers_count", Value: jsonvalue.NewInt(int64(r.Intn(1 << 20)))},
		{Name: "verified", Value: jsonvalue.NewBool(r.Intn(10) == 0)},
	}
	if r.Float64() < g.optionalP() {
		fields = append(fields, jsonvalue.Field{Name: "location", Value: jsonvalue.NewString(pick(r, cities))})
	}
	if r.Float64() < g.optionalP() {
		fields = append(fields, jsonvalue.Field{Name: "description", Value: jsonvalue.NewString(sentence(r, 4))})
	}
	return jsonvalue.NewObject(fields...)
}

func (g Twitter) entities(r *rand.Rand) *jsonvalue.Value {
	nh := r.Intn(4)
	hashtags := make([]*jsonvalue.Value, nh)
	for i := range hashtags {
		hashtags[i] = jsonvalue.ObjectFromPairs(
			"text", pick(r, words),
			"indices", []any{r.Intn(100), r.Intn(100)},
		)
	}
	nu := r.Intn(3)
	urls := make([]*jsonvalue.Value, nu)
	for i := range urls {
		urls[i] = jsonvalue.ObjectFromPairs(
			"url", "https://t.co/"+pick(r, words),
			"expanded_url", "https://example.org/"+pick(r, words),
		)
	}
	return jsonvalue.ObjectFromPairs(
		"hashtags", jsonvalue.NewArray(hashtags...),
		"urls", jsonvalue.NewArray(urls...),
	)
}

// GitHub generates GitHub-event-like documents whose layout depends on a
// type tag — the shape-cluster phenomenon: each event type has its own
// payload record. The number of distinct layouts is len(eventType).
type GitHub struct {
	Seed int64
}

// Name implements Generator.
func (g GitHub) Name() string { return "github" }

// Generate implements Generator.
func (g GitHub) Generate(i int) *jsonvalue.Value {
	r := rng(g.Seed, i)
	typ := pick(r, eventType)
	fields := []jsonvalue.Field{
		{Name: "id", Value: jsonvalue.NewString(fmt.Sprintf("%d", 2<<33+i))},
		{Name: "type", Value: jsonvalue.NewString(typ)},
		{Name: "actor", Value: jsonvalue.ObjectFromPairs(
			"id", r.Intn(1<<24),
			"login", pick(r, firstNames),
		)},
		{Name: "repo", Value: jsonvalue.ObjectFromPairs(
			"id", r.Intn(1<<24),
			"name", pick(r, firstNames)+"/"+pick(r, words),
		)},
		{Name: "public", Value: jsonvalue.NewBool(true)},
		{Name: "created_at", Value: jsonvalue.NewString(isoDate(r))},
	}
	var payload *jsonvalue.Value
	switch typ {
	case "PushEvent":
		n := 1 + r.Intn(3)
		commits := make([]*jsonvalue.Value, n)
		for j := range commits {
			commits[j] = jsonvalue.ObjectFromPairs(
				"sha", fmt.Sprintf("%040x", r.Int63()),
				"message", sentence(r, 5),
				"distinct", r.Intn(2) == 0,
			)
		}
		payload = jsonvalue.ObjectFromPairs(
			"push_id", r.Intn(1<<30),
			"size", n,
			"commits", jsonvalue.NewArray(commits...),
		)
	case "PullRequestEvent":
		payload = jsonvalue.ObjectFromPairs(
			"action", "opened",
			"number", r.Intn(5000),
			"pull_request", map[string]any{
				"title":     sentence(r, 4),
				"additions": r.Intn(2000),
				"deletions": r.Intn(500),
				"merged":    r.Intn(2) == 0,
			},
		)
	case "IssuesEvent":
		payload = jsonvalue.ObjectFromPairs(
			"action", pick(r, []string{"opened", "closed", "reopened"}),
			"issue", map[string]any{
				"number": r.Intn(5000),
				"title":  sentence(r, 4),
				"labels": []any{pick(r, words)},
			},
		)
	case "ForkEvent":
		payload = jsonvalue.ObjectFromPairs("forkee", map[string]any{
			"id":        r.Intn(1 << 24),
			"full_name": pick(r, firstNames) + "/" + pick(r, words),
			"fork":      true,
		})
	case "WatchEvent":
		payload = jsonvalue.ObjectFromPairs("action", "started")
	default: // ReleaseEvent
		payload = jsonvalue.ObjectFromPairs(
			"action", "published",
			"release", map[string]any{
				"tag_name":   fmt.Sprintf("v%d.%d.%d", r.Intn(5), r.Intn(20), r.Intn(20)),
				"prerelease": r.Intn(5) == 0,
			},
		)
	}
	fields = append(fields, jsonvalue.Field{Name: "payload", Value: payload})
	return jsonvalue.NewObject(fields...)
}

// TypeDrift generates flat records in which DriftFields of the
// NumFields fields change type from document to document — the
// "strongly heterogeneous collection" on which Spark-style inference
// degrades to Str (§4.1).
type TypeDrift struct {
	Seed int64
	// NumFields is the total field count (default 10).
	NumFields int
	// DriftFields is how many of them drift across types (default 3).
	DriftFields int
}

// Name implements Generator.
func (g TypeDrift) Name() string { return "typedrift" }

func (g TypeDrift) numFields() int {
	if g.NumFields == 0 {
		return 10
	}
	return g.NumFields
}

func (g TypeDrift) driftFields() int {
	if g.DriftFields == 0 {
		return 3
	}
	return g.DriftFields
}

// Generate implements Generator.
func (g TypeDrift) Generate(i int) *jsonvalue.Value {
	r := rng(g.Seed, i)
	n, d := g.numFields(), g.driftFields()
	if d > n {
		d = n
	}
	fields := make([]jsonvalue.Field, 0, n)
	for f := 0; f < n; f++ {
		name := fmt.Sprintf("f%02d", f)
		var v *jsonvalue.Value
		if f < d {
			switch r.Intn(4) {
			case 0:
				v = jsonvalue.NewInt(int64(r.Intn(1000)))
			case 1:
				v = jsonvalue.NewString(pick(r, words))
			case 2:
				v = jsonvalue.NewBool(r.Intn(2) == 0)
			default:
				v = jsonvalue.ObjectFromPairs("wrapped", r.Intn(100))
			}
		} else {
			v = jsonvalue.NewInt(int64(r.Intn(1000)))
		}
		fields = append(fields, jsonvalue.Field{Name: name, Value: v})
	}
	return jsonvalue.NewObject(fields...)
}

// SkewedOptional generates flat records over a universe of NumFields
// fields where field k appears with Zipf-like probability 1/(k+1) — the
// skew that separates merged analyzers (mongodb-schema) from no-merge
// ones (Studio 3T), and gives counting types (E12) something to count.
type SkewedOptional struct {
	Seed      int64
	NumFields int // default 30
}

// Name implements Generator.
func (g SkewedOptional) Name() string { return "skewed-optional" }

func (g SkewedOptional) numFields() int {
	if g.NumFields == 0 {
		return 30
	}
	return g.NumFields
}

// Generate implements Generator.
func (g SkewedOptional) Generate(i int) *jsonvalue.Value {
	r := rng(g.Seed, i)
	fields := []jsonvalue.Field{
		{Name: "k00", Value: jsonvalue.NewInt(int64(i))}, // always present
	}
	for f := 1; f < g.numFields(); f++ {
		if r.Float64() < 1/float64(f+1) {
			fields = append(fields, jsonvalue.Field{
				Name:  fmt.Sprintf("k%02d", f),
				Value: jsonvalue.NewString(pick(r, words)),
			})
		}
	}
	return jsonvalue.NewObject(fields...)
}

// NestedArrays generates documents with records nested inside arrays
// whose element shapes vary — the structure Skinfer's record-only merge
// cannot summarise (E5).
type NestedArrays struct {
	Seed int64
	// Shapes is the number of distinct element layouts (default 3).
	Shapes int
}

// Name implements Generator.
func (g NestedArrays) Name() string { return "nested-arrays" }

func (g NestedArrays) shapes() int {
	if g.Shapes == 0 {
		return 3
	}
	return g.Shapes
}

// Generate implements Generator.
func (g NestedArrays) Generate(i int) *jsonvalue.Value {
	r := rng(g.Seed, i)
	n := 1 + r.Intn(5)
	items := make([]*jsonvalue.Value, n)
	for j := range items {
		switch r.Intn(g.shapes()) % 3 {
		case 0:
			items[j] = jsonvalue.ObjectFromPairs("sku", r.Intn(10000), "qty", 1+r.Intn(9))
		case 1:
			items[j] = jsonvalue.ObjectFromPairs("sku", r.Intn(10000), "qty", 1+r.Intn(9), "gift", true)
		default:
			items[j] = jsonvalue.ObjectFromPairs("bundle", []any{r.Intn(100), r.Intn(100)}, "discount", r.Float64())
		}
	}
	return jsonvalue.ObjectFromPairs(
		"order_id", i,
		"items", jsonvalue.NewArray(items...),
		"total", r.Float64()*500,
	)
}

// Orders generates denormalised order documents with embedded customer
// and product records — planted functional dependencies for the
// DiScala-Abadi normalisation experiment (E11): customer_id → name,
// city; product sku → name, price.
type Orders struct {
	Seed int64
	// Customers and Products size the embedded entity domains
	// (defaults 50 and 100).
	Customers int
	Products  int
}

// Name implements Generator.
func (g Orders) Name() string { return "orders" }

func (g Orders) customers() int {
	if g.Customers == 0 {
		return 50
	}
	return g.Customers
}

func (g Orders) products() int {
	if g.Products == 0 {
		return 100
	}
	return g.Products
}

// Generate implements Generator.
func (g Orders) Generate(i int) *jsonvalue.Value {
	r := rng(g.Seed, i)
	cid := r.Intn(g.customers())
	// Entity attributes are functions of the id: the planted FDs.
	cr := rand.New(rand.NewSource(g.Seed*7919 + int64(cid)))
	custName := pick(cr, firstNames) + " " + pick(cr, lastNames)
	custCity := pick(cr, cities)
	n := 1 + r.Intn(4)
	lines := make([]*jsonvalue.Value, n)
	for j := range lines {
		sku := r.Intn(g.products())
		pr := rand.New(rand.NewSource(g.Seed*104729 + int64(sku)))
		lines[j] = jsonvalue.ObjectFromPairs(
			"sku", sku,
			"product_name", pick(pr, words)+"-"+pick(pr, words),
			"unit_price", float64(100+pr.Intn(9900))/100,
			"qty", 1+r.Intn(5),
		)
	}
	return jsonvalue.ObjectFromPairs(
		"order_id", i,
		"customer_id", cid,
		"customer_name", custName,
		"customer_city", custCity,
		"date", isoDate(r),
		"lines", jsonvalue.NewArray(lines...),
	)
}

// Mixture interleaves documents from several generators with the given
// weights — the multi-cluster input for schema profiling (E13) and the
// skeleton experiments (E8).
type Mixture struct {
	Seed       int64
	Generators []Generator
	// Weights must match Generators in length; they need not sum to 1.
	Weights []float64
}

// Name implements Generator.
func (g Mixture) Name() string { return "mixture" }

// Generate implements Generator. The chosen component is recorded
// nowhere; use Component to recover ground truth for purity metrics.
func (g Mixture) Generate(i int) *jsonvalue.Value {
	k := g.Component(i)
	return g.Generators[k].Generate(i)
}

// Component returns the index of the generator used for document i —
// the ground-truth cluster label.
func (g Mixture) Component(i int) int {
	r := rng(g.Seed^0x5eed, i)
	total := 0.0
	for _, w := range g.Weights {
		total += w
	}
	x := r.Float64() * total
	for k, w := range g.Weights {
		if x < w {
			return k
		}
		x -= w
	}
	return len(g.Generators) - 1
}

// OpenData generates records like the dataset catalog entries on
// open-data portals (data.gov): flat metadata with several optional
// blocks and a string-heavy distribution.
type OpenData struct {
	Seed int64
}

// Name implements Generator.
func (g OpenData) Name() string { return "opendata" }

// Generate implements Generator.
func (g OpenData) Generate(i int) *jsonvalue.Value {
	r := rng(g.Seed, i)
	fields := []jsonvalue.Field{
		{Name: "identifier", Value: jsonvalue.NewString(fmt.Sprintf("ds-%06d", i))},
		{Name: "title", Value: jsonvalue.NewString(sentence(r, 6))},
		{Name: "description", Value: jsonvalue.NewString(sentence(r, 15))},
		{Name: "accessLevel", Value: jsonvalue.NewString(pick(r, []string{"public", "restricted"}))},
		{Name: "modified", Value: jsonvalue.NewString(isoDate(r))},
		{Name: "keyword", Value: func() *jsonvalue.Value {
			n := 1 + r.Intn(5)
			ks := make([]*jsonvalue.Value, n)
			for j := range ks {
				ks[j] = jsonvalue.NewString(pick(r, words))
			}
			return jsonvalue.NewArray(ks...)
		}()},
		{Name: "publisher", Value: jsonvalue.ObjectFromPairs(
			"name", pick(r, cities)+" department of "+pick(r, words),
		)},
	}
	if r.Intn(2) == 0 {
		fields = append(fields, jsonvalue.Field{Name: "temporal", Value: jsonvalue.NewString(isoDate(r) + "/" + isoDate(r))})
	}
	if r.Intn(3) == 0 {
		fields = append(fields, jsonvalue.Field{Name: "spatial", Value: jsonvalue.NewString(pick(r, cities))})
	}
	if r.Intn(2) == 0 {
		n := 1 + r.Intn(3)
		dists := make([]*jsonvalue.Value, n)
		for j := range dists {
			dists[j] = jsonvalue.ObjectFromPairs(
				"mediaType", pick(r, []string{"text/csv", "application/json", "application/xml"}),
				"downloadURL", "https://data.example.gov/"+pick(r, words),
			)
		}
		fields = append(fields, jsonvalue.Field{Name: "distribution", Value: jsonvalue.NewArray(dists...)})
	}
	return jsonvalue.NewObject(fields...)
}

// NYTArticles generates documents like the New York Times Article
// Search API results the tutorial's §1 cites: string-heavy article
// metadata with a headline record, a byline whose "person" list varies,
// nested multimedia entries, and several nullable fields.
type NYTArticles struct {
	Seed int64
}

// Name implements Generator.
func (g NYTArticles) Name() string { return "nyt-articles" }

// Generate implements Generator.
func (g NYTArticles) Generate(i int) *jsonvalue.Value {
	r := rng(g.Seed, i)
	fields := []jsonvalue.Field{
		{Name: "_id", Value: jsonvalue.NewString(fmt.Sprintf("nyt://article/%08x", r.Int63()))},
		{Name: "web_url", Value: jsonvalue.NewString("https://www.nytimes.com/" + pick(r, words) + "/" + pick(r, words))},
		{Name: "snippet", Value: jsonvalue.NewString(sentence(r, 10))},
		{Name: "pub_date", Value: jsonvalue.NewString(isoDate(r))},
		{Name: "document_type", Value: jsonvalue.NewString("article")},
		{Name: "section_name", Value: jsonvalue.NewString(pick(r, []string{"World", "Science", "Technology", "Opinion"}))},
		{Name: "word_count", Value: jsonvalue.NewInt(int64(200 + r.Intn(3000)))},
		{Name: "headline", Value: jsonvalue.ObjectFromPairs(
			"main", sentence(r, 6),
			"kicker", func() any {
				if r.Intn(2) == 0 {
					return pick(r, words)
				}
				return nil // kicker is frequently null in the real API
			}(),
		)},
	}
	np := r.Intn(3)
	persons := make([]*jsonvalue.Value, np)
	for j := range persons {
		persons[j] = jsonvalue.ObjectFromPairs(
			"firstname", pick(r, firstNames),
			"lastname", pick(r, lastNames),
			"rank", j+1,
		)
	}
	byline := []jsonvalue.Field{
		{Name: "original", Value: jsonvalue.NewString("By " + pick(r, firstNames) + " " + pick(r, lastNames))},
		{Name: "person", Value: jsonvalue.NewArray(persons...)},
	}
	fields = append(fields, jsonvalue.Field{Name: "byline", Value: jsonvalue.NewObject(byline...)})
	if r.Intn(3) > 0 {
		nm := 1 + r.Intn(3)
		media := make([]*jsonvalue.Value, nm)
		for j := range media {
			media[j] = jsonvalue.ObjectFromPairs(
				"type", "image",
				"subtype", pick(r, []string{"xlarge", "thumbnail", "wide"}),
				"url", "images/"+pick(r, words)+".jpg",
				"height", 100+r.Intn(900),
				"width", 100+r.Intn(1600),
			)
		}
		fields = append(fields, jsonvalue.Field{Name: "multimedia", Value: jsonvalue.NewArray(media...)})
	} else {
		fields = append(fields, jsonvalue.Field{Name: "multimedia", Value: jsonvalue.NewArray()})
	}
	if r.Intn(4) == 0 {
		fields = append(fields, jsonvalue.Field{Name: "print_page", Value: jsonvalue.NewString(fmt.Sprint(1 + r.Intn(30)))})
	}
	return jsonvalue.NewObject(fields...)
}

// Wide generates flat records with a large, stable column set — every
// document carries all Columns fields, each with a type fixed by its
// column index. There is no structural heterogeneity at all: the
// generator isolates tokenisation and per-field absorption throughput,
// which is what GB-scale scan benchmarks want to measure.
type Wide struct {
	Seed int64
	// Columns is the number of fields per document (default 200).
	Columns int
}

// Name implements Generator.
func (g Wide) Name() string { return "wide" }

func (g Wide) columns() int {
	if g.Columns == 0 {
		return 200
	}
	return g.Columns
}

// Generate implements Generator.
func (g Wide) Generate(i int) *jsonvalue.Value {
	r := rng(g.Seed, i)
	n := g.columns()
	fields := make([]jsonvalue.Field, n)
	for f := 0; f < n; f++ {
		var v *jsonvalue.Value
		switch f % 4 { // type is a function of the column, never drifts
		case 0:
			v = jsonvalue.NewInt(int64(r.Intn(1 << 20)))
		case 1:
			v = jsonvalue.NewString(pick(r, words))
		case 2:
			v = jsonvalue.NewNumber(r.Float64() * 1000)
		default:
			v = jsonvalue.NewBool(r.Intn(2) == 0)
		}
		fields[f] = jsonvalue.Field{Name: fmt.Sprintf("c%03d", f), Value: v}
	}
	return jsonvalue.NewObject(fields...)
}

// Fields generates colon-dense records: hundreds of short-named fields
// per object, every value a shallow atom a handful of bytes long, so
// structural characters — quotes, colons, commas — are a large fraction
// of the byte stream. This is the workload where skipping separator
// tokens matters most: an index-driven absorber touches each field once
// positionally while a token walker materialises a token per separator,
// so the gap between the two map phases is widest here.
type Fields struct {
	Seed int64
	// PerDoc is the number of fields per document (default 300).
	PerDoc int
}

// Name implements Generator.
func (g Fields) Name() string { return "fields" }

func (g Fields) perDoc() int {
	if g.PerDoc == 0 {
		return 300
	}
	return g.PerDoc
}

// Generate implements Generator.
func (g Fields) Generate(i int) *jsonvalue.Value {
	r := rng(g.Seed, i)
	n := g.perDoc()
	fields := make([]jsonvalue.Field, n)
	for f := 0; f < n; f++ {
		var v *jsonvalue.Value
		switch f % 4 { // stable per-column types keep the merged schema flat
		case 0:
			v = jsonvalue.NewInt(int64(r.Intn(1000)))
		case 1:
			v = jsonvalue.NewString(words[f%len(words)])
		case 2:
			v = jsonvalue.NewBool(r.Intn(2) == 0)
		default:
			v = jsonvalue.NewInt(int64(f))
		}
		fields[f] = jsonvalue.Field{Name: fmt.Sprintf("f%d", f), Value: v}
	}
	return jsonvalue.NewObject(fields...)
}

// Sparse generates flat records drawing a few fields per document from
// a large key universe, so label sets vary wildly from document to
// document. Under L-equivalence the merged schema grows one record
// group per distinct label set — the stress case for record-group
// lookup and field-table churn in the fold.
type Sparse struct {
	Seed int64
	// Universe is the size of the key domain (default 500).
	Universe int
	// PerDoc is how many fields each document carries (default 8).
	PerDoc int
}

// Name implements Generator.
func (g Sparse) Name() string { return "sparse" }

func (g Sparse) universe() int {
	if g.Universe == 0 {
		return 500
	}
	return g.Universe
}

func (g Sparse) perDoc() int {
	if g.PerDoc == 0 {
		return 8
	}
	return g.PerDoc
}

// Generate implements Generator.
func (g Sparse) Generate(i int) *jsonvalue.Value {
	r := rng(g.Seed, i)
	u, k := g.universe(), g.perDoc()
	if k > u {
		k = u
	}
	fields := make([]jsonvalue.Field, 0, k)
	seen := make(map[int]bool, k)
	for len(fields) < k {
		f := r.Intn(u)
		if seen[f] {
			continue
		}
		seen[f] = true
		var v *jsonvalue.Value
		switch f % 3 {
		case 0:
			v = jsonvalue.NewInt(int64(r.Intn(1 << 16)))
		case 1:
			v = jsonvalue.NewString(pick(r, words))
		default:
			v = jsonvalue.NewBool(r.Intn(2) == 0)
		}
		fields = append(fields, jsonvalue.Field{Name: fmt.Sprintf("s%03d", f), Value: v})
	}
	return jsonvalue.NewObject(fields...)
}

// Deep generates documents whose dominant cost is nesting: a chain of
// single-field records interleaved with arrays, Depth levels deep (well
// under the parser's depth limit), with a small payload record at the
// bottom. It exercises the recursive walk — staging-frame push/pop per
// level — rather than field-table width.
type Deep struct {
	Seed int64
	// Depth is the nesting depth (default 20).
	Depth int
}

// Name implements Generator.
func (g Deep) Name() string { return "deep" }

func (g Deep) depth() int {
	if g.Depth == 0 {
		return 20
	}
	return g.Depth
}

// Generate implements Generator.
func (g Deep) Generate(i int) *jsonvalue.Value {
	r := rng(g.Seed, i)
	v := jsonvalue.ObjectFromPairs(
		"id", i,
		"tag", pick(r, words),
		"score", r.Float64(),
	)
	for d := g.depth(); d > 0; d-- {
		if d%3 == 0 {
			// An array level: a couple of siblings share the nested shape,
			// so array-element merging happens at every third level.
			v = jsonvalue.NewArray(v, jsonvalue.ObjectFromPairs("leaf", r.Intn(100)))
		}
		v = jsonvalue.NewObject(
			jsonvalue.Field{Name: fmt.Sprintf("level%02d", d), Value: v},
			jsonvalue.Field{Name: "n", Value: jsonvalue.NewInt(int64(d))},
		)
	}
	return v
}
