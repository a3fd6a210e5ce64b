package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sort"
	"strconv"

	"archline/internal/machine"
	"archline/internal/stats"
)

// request is one generated HTTP request plus what its answer is checked
// against.
type request struct {
	route  string
	method string
	path   string
	body   []byte
	gzip   bool   // send Accept-Encoding: gzip (else identity)
	items  []item // query/batch: the evaluations the answer must match
	upload *upload
	points int // stream: grid points
}

// item is one query evaluation: a platform and an intensity.
type item struct {
	ref       platRef
	intensity float64
}

// platRef names the platform an item is evaluated on.
type platRef struct {
	id     string // built-in or uploaded platform id; "" when inline
	inline int    // index into generator.inline when id == ""
}

// upload is one POST /v1/platforms: a churn platform with a new pi1.
type upload struct {
	id   string
	body []byte
}

// Route weights. The read mix is archloadgen's default mix; query-churn
// adds uploads at 5% of all requests.
var readMix = []struct {
	route  string
	weight float64
}{
	{"query", 45}, {"roofline", 15}, {"compare", 10}, {"whatif", 10}, {"batch", 10}, {"platforms", 10},
}

const (
	uploadShare = 0.05
	// churnPlatforms is how many uploaded platforms query-churn seeds
	// the data directory with; its reads and writes target them.
	churnPlatforms = 32
	zipfS          = 1.1
)

// intensityGrid is archloadgen's quantized pool: 1/8 to 512 flop/byte
// in 64 log-spaced steps, so repeated draws share cache slots.
var intensityGrid = func() []float64 {
	out := make([]float64, 64)
	for i := range out {
		out[i] = 0.125 * math.Pow(2, float64(i)*13.0/63.0)
	}
	return out
}()

var pointsGrid = []int{17, 33, 65}

func builtinIDs() []string {
	var ids []string
	for _, p := range machine.All() {
		ids = append(ids, string(p.ID))
	}
	return ids
}

// generator derives a deterministic request stream from a seed. One
// generator owns its RNG, so the stream does not depend on scheduling.
type generator struct {
	rng      *stats.Stream
	churn    bool
	builtin  []string
	zipf     []float64 // cumulative zipf weights over builtin ranks
	routes   []string
	cum      []float64
	inline   [][]byte         // canonical JSON of each built-in (churn reads)
	churnIDs []string         // uploaded platform ids
	churnDoc []map[string]any // their seeded JSON documents
}

func newGenerator(seed uint64, churn bool) (*generator, error) {
	g := &generator{
		rng:     stats.NewStream(seed, "perfbench"),
		churn:   churn,
		builtin: builtinIDs(),
	}
	total := 0.0
	for k := range g.builtin {
		total += 1 / math.Pow(float64(k+1), zipfS)
		g.zipf = append(g.zipf, total)
	}
	for k := range g.zipf {
		g.zipf[k] /= total
	}
	total = 0
	for _, m := range readMix {
		total += m.weight
		g.routes = append(g.routes, m.route)
		g.cum = append(g.cum, total)
	}
	if churn {
		total += total * uploadShare / (1 - uploadShare)
		g.routes = append(g.routes, "upload")
		g.cum = append(g.cum, total)
		for _, p := range machine.All() {
			canon, err := machine.Canonical(p)
			if err != nil {
				return nil, err
			}
			g.inline = append(g.inline, canon)
		}
		for i := 0; i < churnPlatforms; i++ {
			id := fmt.Sprintf("churn-%02d", i)
			var doc map[string]any
			if err := json.Unmarshal(g.inline[i%len(g.inline)], &doc); err != nil {
				return nil, err
			}
			doc["id"] = id
			doc["name"] = "churn platform " + strconv.Itoa(i)
			g.churnIDs = append(g.churnIDs, id)
			g.churnDoc = append(g.churnDoc, doc)
		}
	}
	return g, nil
}

// seedPlatforms returns the JSON bodies query-churn pre-seeds the data
// directory with (version 1 of every churn platform).
func (g *generator) seedPlatforms() ([][]byte, error) {
	var out [][]byte
	for _, doc := range g.churnDoc {
		b, err := json.Marshal(doc)
		if err != nil {
			return nil, err
		}
		out = append(out, b)
	}
	return out, nil
}

func (g *generator) pickBuiltin() string {
	return g.builtin[sort.SearchFloat64s(g.zipf, g.rng.Float64())]
}

// pickRef draws a platform: zipf-ranked built-ins on query-hot; on
// query-churn half inline built-in bodies, half uploaded ids.
func (g *generator) pickRef() platRef {
	if !g.churn {
		return platRef{id: g.pickBuiltin()}
	}
	if g.rng.Float64() < 0.5 {
		return platRef{inline: sort.SearchFloat64s(g.zipf, g.rng.Float64())}
	}
	return platRef{id: g.churnIDs[g.rng.Intn(len(g.churnIDs))]}
}

// refJSON renders a platform reference as request fields.
func (g *generator) refJSON(r platRef) map[string]any {
	if r.id != "" {
		return map[string]any{"platform_id": r.id}
	}
	return map[string]any{"platform": json.RawMessage(g.inline[r.inline])}
}

// intensity draws from the quantized grid (hot) or continuously over
// the same range (churn), so churn requests never repeat.
func (g *generator) intensity() float64 {
	if !g.churn {
		return intensityGrid[g.rng.Intn(len(intensityGrid))]
	}
	return 0.125 * math.Pow(2, 13*g.rng.Float64())
}

// grid adds a sweep grid to a request: quantized points on both
// workloads, plus continuous bounds on churn.
func (g *generator) grid(fields map[string]any) {
	fields["points"] = pointsGrid[g.rng.Intn(len(pointsGrid))]
	if g.churn {
		fields["imin"] = 0.125 * math.Pow(2, 2*g.rng.Float64())
		fields["imax"] = 64 * math.Pow(2, 3*g.rng.Float64())
	}
}

func (g *generator) queryItem() (item, map[string]any) {
	it := item{ref: g.pickRef(), intensity: g.intensity()}
	fields := g.refJSON(it.ref)
	fields["intensity"] = it.intensity
	return it, fields
}

// next builds the next request of the stream.
func (g *generator) next() (*request, error) {
	x := g.rng.Float64() * g.cum[len(g.cum)-1]
	route := g.routes[sort.SearchFloat64s(g.cum, x)]
	r := &request{route: route, method: http.MethodPost, gzip: true}
	var body any
	switch route {
	case "query":
		it, fields := g.queryItem()
		r.path, r.items, body = "/v1/query", []item{it}, fields
	case "roofline":
		id := g.pickBuiltin()
		if g.churn {
			id = g.churnIDs[g.rng.Intn(len(g.churnIDs))]
		}
		fields := map[string]any{}
		g.grid(fields)
		q := "points=" + strconv.Itoa(fields["points"].(int))
		if g.churn {
			q += "&imin=" + strconv.FormatFloat(fields["imin"].(float64), 'g', -1, 64) +
				"&imax=" + strconv.FormatFloat(fields["imax"].(float64), 'g', -1, 64)
		}
		r.method, r.path = http.MethodGet, "/v1/platforms/"+id+"/roofline?"+q
	case "compare":
		fields := map[string]any{"a": g.refJSON(g.pickRef()), "b": g.refJSON(g.pickRef())}
		g.grid(fields)
		r.path, body = "/v1/compare", fields
	case "whatif":
		fields := map[string]any{"kind": "throttle", "platform": g.refJSON(g.pickRef())}
		if g.churn {
			g.grid(fields)
		}
		r.path, body = "/v1/whatif", fields
	case "batch":
		n := 3 + g.rng.Intn(6)
		items := make([]map[string]any, n)
		for i := range items {
			var it item
			it, items[i] = g.queryItem()
			r.items = append(r.items, it)
		}
		r.path, body = "/v1/batch", map[string]any{"items": items}
	case "platforms":
		r.method, r.path = http.MethodGet, "/v1/platforms"
	case "upload":
		i := g.rng.Intn(len(g.churnIDs))
		doc := g.churnDoc[i]
		seeded := doc["pi1_w"].(float64)
		// One constant changes per upload, to a fresh continuous value,
		// so every upload is a real update that invalidates.
		doc = shallowCopy(doc)
		doc["pi1_w"] = seeded * (0.75 + 0.5*g.rng.Float64())
		b, err := json.Marshal(doc)
		if err != nil {
			return nil, err
		}
		r.path, r.body = "/v1/platforms", b
		r.upload = &upload{id: g.churnIDs[i], body: b}
	}
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return nil, err
		}
		r.body = b
	}
	return r, nil
}

func shallowCopy(m map[string]any) map[string]any {
	out := make(map[string]any, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// take builds the next n requests.
func (g *generator) take(n int) ([]*request, error) {
	out := make([]*request, n)
	for i := range out {
		r, err := g.next()
		if err != nil {
			return nil, err
		}
		out[i] = r
	}
	return out, nil
}
