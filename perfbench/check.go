package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"time"

	"archline/internal/machine"
	"archline/internal/model"
)

// checker verifies answers after the clock stops: every query and batch
// answer must equal an independent model.Kernel evaluation of the same
// platform version, and on query-churn no read may show a platform
// version older than one whose upload was acknowledged before the read
// was sent.
type checker struct {
	kernels                  map[string]*expect   // built-in id or "inline:<n>"
	versions                 map[string][]*expect // churn id -> versions in ascending order
	attempted, failed, stale int
	reasons                  []string
}

// expect is one platform version answers are evaluated against.
type expect struct {
	version     uint64
	name        string
	k           model.Kernel
	sent, acked time.Time
}

func newChecker(g *generator) (*checker, error) {
	c := &checker{kernels: map[string]*expect{}, versions: map[string][]*expect{}}
	for _, p := range machine.All() {
		c.kernels[string(p.ID)] = &expect{name: p.Name, k: model.NewKernel(p.Single)}
	}
	for i, body := range g.inline {
		e, err := expectFor(body)
		if err != nil {
			return nil, err
		}
		c.kernels[fmt.Sprintf("inline:%d", i)] = e
	}
	seeds, err := g.seedPlatforms()
	if err != nil {
		return nil, err
	}
	for i, body := range seeds {
		e, err := expectFor(body)
		if err != nil {
			return nil, err
		}
		e.version = 1
		c.versions[g.churnIDs[i]] = []*expect{e}
	}
	return c, nil
}

// expectFor parses a platform body the way the daemon does.
func expectFor(body []byte) (*expect, error) {
	p, err := machine.FromJSON(bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	return &expect{name: p.Name, k: model.NewKernel(p.Single)}, nil
}

func (c *checker) fail(format string, args ...any) {
	c.failed++
	if len(c.reasons) < 5 {
		c.reasons = append(c.reasons, fmt.Sprintf(format, args...))
	}
}

// check verifies one phase's results. Uploads are registered first, so
// a read is judged against every write that overlapped it.
func (c *checker) check(rs []result) error {
	for i := range rs {
		r := &rs[i]
		if r.req.upload == nil || !r.ok() {
			continue
		}
		var ack struct {
			ID      string `json:"id"`
			Version uint64 `json:"version"`
		}
		if err := json.Unmarshal(r.body, &ack); err != nil || ack.ID != r.req.upload.id {
			continue // counted as a failure below
		}
		e, err := expectFor(r.req.upload.body)
		if err != nil {
			return err
		}
		e.version, e.sent, e.acked = ack.Version, r.sent, r.done
		vs := append(c.versions[ack.ID], e)
		for j := len(vs) - 1; j > 0 && vs[j].version < vs[j-1].version; j-- {
			vs[j], vs[j-1] = vs[j-1], vs[j]
		}
		c.versions[ack.ID] = vs
	}
	for i := range rs {
		c.checkOne(&rs[i])
	}
	return nil
}

func (c *checker) checkOne(r *result) {
	c.attempted++
	if r.err != nil {
		c.fail("%s %s: %v", r.req.method, r.req.path, r.err)
		return
	}
	if !r.ok() {
		c.fail("%s %s: HTTP %d", r.req.method, r.req.path, r.status)
		return
	}
	body := r.body
	if r.encoding == "gzip" && body != nil {
		zr, err := gzip.NewReader(bytes.NewReader(body))
		if err == nil {
			body, err = io.ReadAll(zr)
		}
		if err != nil {
			c.fail("%s: bad gzip body: %v", r.req.path, err)
			return
		}
	}
	switch {
	case r.req.upload != nil:
		var ack struct {
			ID      string `json:"id"`
			Outcome string `json:"outcome"`
		}
		if err := json.Unmarshal(body, &ack); err != nil || ack.ID != r.req.upload.id || ack.Outcome != "updated" {
			c.fail("upload %s: answer %q is not an update", r.req.upload.id, body)
		}
	case r.req.route == "query":
		if msg := c.verifyItem(r.req.items[0], body, r); msg != "" {
			c.fail("query: %s", msg)
		}
	case r.req.route == "batch":
		var b struct {
			Items   int               `json:"items"`
			Results []json.RawMessage `json:"results"`
		}
		if err := json.Unmarshal(body, &b); err != nil || len(b.Results) != len(r.req.items) {
			c.fail("batch: malformed answer (%v)", err)
			return
		}
		for j, it := range r.req.items {
			if msg := c.verifyItem(it, b.Results[j], r); msg != "" {
				c.fail("batch item %d: %s", j, msg)
				return
			}
		}
	}
}

// answer is the /v1/query response schema.
type answer struct {
	Platform      string   `json:"platform"`
	Regime        string   `json:"regime"`
	Intensity     float64  `json:"intensity"`
	FlopsPerSec   *float64 `json:"flops_per_sec"`
	FlopsPerJoule *float64 `json:"flops_per_joule"`
	AvgPowerW     *float64 `json:"avg_power_w"`
	Throttle      *float64 `json:"throttle"`
}

// matches reports whether a equals the kernel evaluation of e at iv,
// bit for bit (JSON round-trips float64 exactly).
func (a *answer) matches(e *expect, iv float64) bool {
	eq := func(got *float64, want float64) bool {
		if math.IsNaN(want) || math.IsInf(want, 0) {
			return got == nil
		}
		return got != nil && math.Float64bits(*got) == math.Float64bits(want)
	}
	return a.Platform == e.name && math.Float64bits(a.Intensity) == math.Float64bits(iv) &&
		a.Regime == e.k.RegimeAt(iv).Letter() &&
		eq(a.FlopsPerSec, e.k.FlopRateAt(iv)) &&
		eq(a.FlopsPerJoule, e.k.FlopsPerJouleAt(iv)) &&
		eq(a.AvgPowerW, e.k.AvgPowerAt(iv)) &&
		eq(a.Throttle, e.k.ThrottleFactor(iv))
}

// verifyItem returns "" when body answers it correctly, else why not.
func (c *checker) verifyItem(it item, body []byte, r *result) string {
	var a answer
	if err := json.Unmarshal(body, &a); err != nil {
		return fmt.Sprintf("malformed answer: %v", err)
	}
	if it.ref.id == "" {
		if !a.matches(c.kernels[fmt.Sprintf("inline:%d", it.ref.inline)], it.intensity) {
			return "inline platform answer differs from the kernel"
		}
		return ""
	}
	if e, ok := c.kernels[it.ref.id]; ok {
		if !a.matches(e, it.intensity) {
			return it.ref.id + " answer differs from the kernel"
		}
		return ""
	}
	vs := c.versions[it.ref.id]
	// The read must see at least the newest version acknowledged before
	// it was sent, and at most a version whose upload began before it
	// finished.
	var floor uint64
	for _, v := range vs {
		if !v.acked.IsZero() && v.acked.Before(r.sent) && v.version > floor {
			floor = v.version
		}
	}
	for _, v := range vs {
		if v.version >= floor && (v.sent.IsZero() || v.sent.Before(r.done)) && a.matches(v, it.intensity) {
			return ""
		}
	}
	for _, v := range vs {
		if v.version < floor && a.matches(v, it.intensity) {
			c.stale++
			return fmt.Sprintf("%s: stale read of v%d after v%d was acknowledged", it.ref.id, v.version, floor)
		}
	}
	return it.ref.id + " answer matches no platform version"
}
