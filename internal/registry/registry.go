package registry

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"archline/internal/machine"
)

// Sentinel errors for the API surface. The server maps them to
// 404/409/503 respectively.
var (
	ErrNotFound = errors.New("registry: platform not found")
	ErrReadOnly = errors.New("registry: built-in platforms are read-only")
	ErrNoData   = errors.New("registry: no data directory configured; uploads are disabled")
)

// DefaultShards is the shard count when the caller passes 0.
const DefaultShards = 8

// Entry is one resolvable platform. Entries are immutable once
// published: a re-upload installs a new Entry at a higher version, so a
// reader that resolved an Entry keeps a consistent (platform, version,
// etag) triple for its whole request even while an upload races it.
type Entry struct {
	ID      string
	Version uint64
	// ETag is the strong validator: the quoted SHA-256 hex of the
	// canonical platform bytes. Identical content → identical ETag,
	// whatever formatting the uploader used.
	ETag    string
	Builtin bool
	// Platform must be treated as read-only by callers.
	Platform *machine.Platform
	// Canonical is the platform's canonical JSON — the exact bytes the
	// ETag hashes and GET /v1/platforms/{id} serves.
	Canonical []byte
}

// CacheKey is the version-carrying cache-key fragment for responses
// computed against this entry. Because the version is part of the key,
// a response cached against version N is structurally unreachable once
// version N+1 exists — correctness does not depend on eviction racing
// ahead of the next read.
func (e *Entry) CacheKey() string {
	return "id:" + e.ID + "@v" + strconv.FormatUint(e.Version, 10)
}

// PutOutcome says what a Put did.
type PutOutcome int

const (
	PutCreated   PutOutcome = iota // new ID
	PutUpdated                     // existing ID, new content, version bumped
	PutUnchanged                   // byte-identical content, no new version
)

func (o PutOutcome) String() string {
	switch o {
	case PutCreated:
		return "created"
	case PutUpdated:
		return "updated"
	case PutUnchanged:
		return "unchanged"
	}
	return "unknown"
}

// Stats is a point-in-time snapshot for the metrics probe.
type Stats struct {
	Uploads       uint64 // durable Put commits since open
	Invalidations uint64 // version bumps that retired a cached response key
	Quarantined   uint64 // blobs quarantined by the recovery scan
	Generation    uint64 // bumped on any membership or content change
	// ShardPlatforms is the live-entry count per shard (builtins
	// included): the occupancy gauge.
	ShardPlatforms []int
}

// shard is one lock domain of the index.
type shard struct {
	mu sync.RWMutex
	// entries holds live platforms (builtin + user). Tombstoned IDs are
	// absent here but keep their floor in versions.
	entries map[string]*Entry
	// versions is the monotonic floor per ID: the highest version ever
	// committed, surviving deletes, so a re-created platform can never
	// reuse a version a cached response was keyed under.
	versions map[string]uint64
	// blobs maps ID → current on-disk blob name (user entries and
	// tombstones; builtins have no blob).
	blobs map[string]string
}

// Registry is the sharded, versioned platform index over the crash-safe
// store. Built-in Table I platforms appear as read-only entries so
// every endpoint resolves platforms through one path.
type Registry struct {
	store    *store
	ring     *ring
	shards   []*shard
	builtins map[string]bool
	recovery RecoveryStats

	uploads       atomic.Uint64
	invalidations atomic.Uint64
	generation    atomic.Uint64
}

// Open loads the registry from dir, creating the layout on first run.
// The recovery scan verifies every blob, quarantines what fails, prunes
// superseded versions, and seeds the index; built-in platforms are
// installed as read-only version-1 entries. shards <= 0 selects
// DefaultShards.
func Open(dir string, shards int) (*Registry, error) {
	if dir == "" {
		return nil, errors.New("registry: data directory required")
	}
	st, err := newStore(dir)
	if err != nil {
		return nil, err
	}
	r, err := newRegistry(st, shards)
	if err != nil {
		return nil, err
	}
	if err := r.replay(); err != nil {
		return nil, err
	}
	return r, nil
}

// OpenMemory builds a registry with no backing store: the built-in
// platforms resolve normally, but Put and Delete fail with ErrNoData.
// It backs a daemon started without -data-dir, which still routes every
// platform lookup through the registry.
func OpenMemory(shards int) (*Registry, error) {
	return newRegistry(nil, shards)
}

func newRegistry(st *store, shards int) (*Registry, error) {
	if shards <= 0 {
		shards = DefaultShards
	}
	r := &Registry{
		store:    st,
		ring:     newRing(shards),
		shards:   make([]*shard, shards),
		builtins: make(map[string]bool),
	}
	for i := range r.shards {
		r.shards[i] = &shard{
			entries:  make(map[string]*Entry),
			versions: make(map[string]uint64),
			blobs:    make(map[string]string),
		}
	}
	for _, p := range machine.All() {
		canon, err := machine.Canonical(p)
		if err != nil {
			return nil, fmt.Errorf("registry: canonicalizing built-in %s: %w", p.ID, err)
		}
		id := string(p.ID)
		r.builtins[id] = true
		sh := r.shardFor(id)
		sh.entries[id] = &Entry{
			ID:        id,
			Version:   1,
			ETag:      etagFor(canon),
			Builtin:   true,
			Platform:  p,
			Canonical: canon,
		}
		sh.versions[id] = 1
	}
	return r, nil
}

// replay runs the store's recovery scan and installs the winners.
func (r *Registry) replay() error {
	blobs, stats, err := r.store.recoverScan(r.admissible)
	if err != nil {
		return err
	}
	// Group by ID; highest version wins. The scan returns blobs in
	// name order, so ties (same version committed twice, which a crash
	// between rename and prune can leave) resolve deterministically to
	// the lexically-last blob.
	byID := make(map[string][]recoveredBlob)
	ids := make([]string, 0, len(blobs))
	for _, b := range blobs {
		if _, seen := byID[b.env.ID]; !seen {
			ids = append(ids, b.env.ID)
		}
		byID[b.env.ID] = append(byID[b.env.ID], b)
	}
	sort.Strings(ids)
	for _, id := range ids {
		group := byID[id]
		winner := group[0]
		for _, b := range group[1:] {
			if b.env.Version >= winner.env.Version {
				winner = b
			}
		}
		for _, b := range group {
			if b.name == winner.name {
				continue
			}
			if err := r.store.remove(b.name); err != nil {
				return fmt.Errorf("registry: pruning superseded blob: %w", err)
			}
			stats.Pruned++
		}
		sh := r.shardFor(id)
		sh.versions[id] = winner.env.Version
		sh.blobs[id] = winner.name
		if winner.env.Deleted {
			stats.Tombstones++
			continue
		}
		p, err := machine.FromJSON(bytes.NewReader(winner.env.Platform))
		if err != nil {
			// admissible already decoded this envelope successfully;
			// reaching here means the two paths disagree, which is a
			// bug worth failing loudly over, not quarantining.
			return fmt.Errorf("registry: verified blob failed decode: %w", err)
		}
		sh.entries[id] = &Entry{
			ID:        id,
			Version:   winner.env.Version,
			ETag:      `"` + winner.env.SHA256 + `"`,
			Platform:  p,
			Canonical: winner.env.Platform,
		}
		stats.Loaded++
	}
	r.recovery = stats
	return nil
}

// admissible is the semantic half of blob verification: the envelope's
// platform must decode under the strict validator, agree with the
// envelope's ID, and not shadow a built-in.
func (r *Registry) admissible(env *envelope) string {
	if !machine.ValidID(env.ID) {
		return "inadmissible platform id"
	}
	if r.builtins[env.ID] {
		return "shadows a built-in platform"
	}
	if env.Deleted {
		return ""
	}
	p, err := machine.FromJSON(bytes.NewReader(env.Platform))
	if err != nil {
		return "platform fails strict validation: " + err.Error()
	}
	if string(p.ID) != env.ID {
		return "platform id disagrees with envelope id"
	}
	return ""
}

func etagFor(canonical []byte) string {
	sum := sha256.Sum256(canonical)
	return `"` + hex.EncodeToString(sum[:]) + `"`
}

func (r *Registry) shardFor(id string) *shard {
	return r.shards[r.ring.shard(id)]
}

// Recovery returns the startup scan's summary.
func (r *Registry) Recovery() RecoveryStats { return r.recovery }

// Generation increments on every membership or content change; listing
// caches key on it so they refresh without explicit eviction.
func (r *Registry) Generation() uint64 { return r.generation.Load() }

// Get resolves a live platform by ID.
func (r *Registry) Get(id string) (*Entry, error) {
	sh := r.shardFor(id)
	sh.mu.RLock()
	e := sh.entries[id]
	sh.mu.RUnlock()
	if e == nil {
		return nil, ErrNotFound
	}
	return e, nil
}

// List returns every live entry (builtins and uploads) sorted by ID.
func (r *Registry) List() []*Entry {
	var ids []string
	for _, sh := range r.shards {
		sh.mu.RLock()
		for id := range sh.entries {
			ids = append(ids, id)
		}
		sh.mu.RUnlock()
	}
	sort.Strings(ids)
	out := make([]*Entry, 0, len(ids))
	for _, id := range ids {
		// Re-resolved per ID: an entry swapped since the key snapshot is
		// served at its newest version; one deleted meanwhile is skipped.
		if e, err := r.Get(id); err == nil {
			out = append(out, e)
		}
	}
	return out
}

// Put durably installs p, already validated by machine.FromJSON. A new
// ID is created at the floor version + 1; an existing ID with different
// content is updated (version bump + invalidation); byte-identical
// content is a no-op returning the current entry — re-uploading the
// same file is idempotent and keeps caches warm.
func (r *Registry) Put(p *machine.Platform) (*Entry, PutOutcome, error) {
	id := string(p.ID)
	if r.builtins[id] {
		return nil, 0, ErrReadOnly
	}
	if r.store == nil {
		return nil, 0, ErrNoData
	}
	canon, err := machine.Canonical(p)
	if err != nil {
		return nil, 0, fmt.Errorf("registry: canonicalizing %s: %w", id, err)
	}
	etag := etagFor(canon)

	sh := r.shardFor(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()

	cur := sh.entries[id]
	if cur != nil && cur.ETag == etag {
		return cur, PutUnchanged, nil
	}
	version := sh.versions[id] + 1
	sum := sha256.Sum256(canon)
	name, err := r.store.writeEnvelope(&envelope{
		Format:   envelopeFormat,
		ID:       id,
		Version:  version,
		SHA256:   hex.EncodeToString(sum[:]),
		Platform: canon,
	})
	if err != nil {
		return nil, 0, err
	}
	if old := sh.blobs[id]; old != "" {
		// Best-effort: a leftover superseded blob is pruned by the
		// next recovery scan.
		_ = r.store.remove(old)
	}
	sh.blobs[id] = name
	sh.versions[id] = version
	e := &Entry{
		ID:        id,
		Version:   version,
		ETag:      etag,
		Platform:  p,
		Canonical: canon,
	}
	sh.entries[id] = e
	r.uploads.Add(1)
	r.generation.Add(1)
	outcome := PutCreated
	if cur != nil {
		outcome = PutUpdated
		r.invalidations.Add(1)
	}
	return e, outcome, nil
}

// Delete tombstones an uploaded platform. The tombstone is committed
// through the same crash-safe path as uploads and preserves the version
// floor, so a later re-creation starts above every version a cache has
// ever seen.
func (r *Registry) Delete(id string) error {
	if r.builtins[id] {
		return ErrReadOnly
	}
	sh := r.shardFor(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()

	cur := sh.entries[id]
	if cur == nil {
		// Checked before the no-store case: an ID nobody ever uploaded is
		// "not found" whether or not durable storage is configured.
		return ErrNotFound
	}
	if r.store == nil {
		return ErrNoData
	}
	version := sh.versions[id] + 1
	name, err := r.store.writeEnvelope(&envelope{
		Format:  envelopeFormat,
		ID:      id,
		Version: version,
		Deleted: true,
	})
	if err != nil {
		return err
	}
	if old := sh.blobs[id]; old != "" {
		_ = r.store.remove(old)
	}
	sh.blobs[id] = name
	sh.versions[id] = version
	delete(sh.entries, id)
	r.generation.Add(1)
	r.invalidations.Add(1)
	return nil
}

// Stats snapshots the registry for the metrics probe.
func (r *Registry) Stats() Stats {
	s := Stats{
		Uploads:        r.uploads.Load(),
		Invalidations:  r.invalidations.Load(),
		Quarantined:    uint64(r.recovery.Quarantined),
		Generation:     r.generation.Load(),
		ShardPlatforms: make([]int, len(r.shards)),
	}
	for i, sh := range r.shards {
		sh.mu.RLock()
		s.ShardPlatforms[i] = len(sh.entries)
		sh.mu.RUnlock()
	}
	return s
}
