// Package service is the resident mining service behind cmd/maimond: a
// session registry that loads and dictionary-encodes relations once,
// opening one shared maimon.Session per dataset so every job over a
// dataset mines against the same warm entropy state; a job manager
// running mining jobs on a bounded worker pool with an async lifecycle
// (queued → running → done/failed/cancelled) and per-job cancellation via
// context, whose retained jobs also answer a repeated job per session
// incarnation (the result cache); and the HTTP handler
// exposing it all as a JSON API, versioned under /v1. The API's JSON
// shapes are internal/wire's, shared with internal/dist and clients.
//
// The split from the library facade is deliberate: the facade owns the
// Session abstraction (warm oracle, streaming, progress events), while
// this package owns everything service-shaped — registration, queueing,
// job lifecycle, result caching.
package service

import (
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	maimon "repro"
	"repro/internal/relation"
	"repro/internal/wire"
)

// DatasetInfo describes a registered dataset (shape in internal/wire).
type DatasetInfo = wire.DatasetInfo

// Registry holds one maimon.Session per registered dataset. A relation is
// parsed, dictionary-encoded, and wrapped in a Session once at
// registration; afterwards any number of concurrent jobs mine through the
// shared session, so the PLI partitions and entropies one job computes
// warm every later job on the same dataset (sessions are concurrency-
// safe by construction).
type Registry struct {
	// opts are applied to every session the registry opens — the place
	// service-wide session policy (e.g. maimon.WithMemoryBudget from
	// maimond's -cache-bytes) is injected.
	opts []maimon.Option

	// spillRoot/spillBudget, when set via SetSpill, give every session a
	// per-dataset spill directory under the root. The subdirectory name
	// is derived from the dataset name (sanitized plus a hash), so the
	// same dataset name re-registered after a restart finds its previous
	// segments — the shape stamp decides whether they are still valid.
	spillRoot   string
	spillBudget int64

	// open opens a dataset's session: maimon.Open, replaced in tests that
	// count the sessions an Add opens.
	open func(*relation.Relation, ...maimon.Option) (*maimon.Session, error)

	mu sync.RWMutex
	m  map[string]*entry
	// reserved holds the names whose Add is opening a session: taken, but
	// not yet registered, so no other Add opens the same spill directory
	// and no reader sees a dataset without a session.
	reserved map[string]bool
	seq      int64
}

// ErrDatasetExists is the error (wrapped) for registering a name that is
// taken: names are unique until the dataset is deleted.
var ErrDatasetExists = errors.New("dataset already registered")

type entry struct {
	sess *maimon.Session
	info DatasetInfo
	// id distinguishes incarnations: removing and re-registering a
	// dataset under the same name yields a fresh session with a fresh id,
	// so cached results of the old incarnation can never serve the new.
	id int64
}

// NewRegistry returns an empty registry. The given options become the
// defaults of every session it opens (maimon.WithMemoryBudget being the
// expected one: it bounds each dataset's PLI partition cache, the
// dominant memory of a resident service).
func NewRegistry(opts ...maimon.Option) *Registry {
	return &Registry{m: make(map[string]*entry), reserved: make(map[string]bool), opts: opts, open: maimon.Open}
}

// SetSpill points the registry at a spill root directory: every session
// opened afterwards gets the disk spill tier (maimon.WithSpillDir) in a
// per-dataset subdirectory, bounded by budget bytes each (<= 0 =
// unlimited). Call before registering datasets; "" disables.
func (g *Registry) SetSpill(root string, budget int64) {
	g.spillRoot = root
	g.spillBudget = budget
}

// spillDirFor maps a dataset name to its spill subdirectory: the name
// sanitized to a filesystem-safe prefix plus a hash of the exact name,
// so distinct dataset names can never share (and poison) a directory.
func (g *Registry) spillDirFor(name string) string {
	safe := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			return r
		default:
			return '_'
		}
	}, name)
	if len(safe) > 40 {
		safe = safe[:40]
	}
	h := fnv.New64a()
	h.Write([]byte(name))
	return filepath.Join(g.spillRoot, fmt.Sprintf("%s-%016x", safe, h.Sum64()))
}

// Add opens a session over r and registers it under name. Names are
// unique: re-registering is an error (delete first), which keeps cached
// results unambiguous. The name is reserved before the session is
// opened, so of two Adds racing for one name the loser fails without
// opening anything — in particular not the winner's spill directory.
func (g *Registry) Add(name string, r *relation.Relation) (DatasetInfo, error) {
	if name == "" {
		return DatasetInfo{}, fmt.Errorf("service: dataset name must not be empty")
	}
	g.mu.Lock()
	if g.taken(name) {
		g.mu.Unlock()
		return DatasetInfo{}, fmt.Errorf("service: %w: %q", ErrDatasetExists, name)
	}
	g.reserved[name] = true
	g.mu.Unlock()

	opts := g.opts
	if g.spillRoot != "" {
		opts = append(append([]maimon.Option(nil), opts...),
			maimon.WithSpillDir(g.spillDirFor(name)),
			maimon.WithSpillBudget(g.spillBudget))
	}
	sess, err := g.open(r, opts...)

	g.mu.Lock()
	defer g.mu.Unlock()
	delete(g.reserved, name)
	if err != nil {
		return DatasetInfo{}, fmt.Errorf("service: opening session for %q: %w", name, err)
	}
	info := DatasetInfo{
		Name:     name,
		Rows:     r.NumRows(),
		Cols:     r.NumCols(),
		Attrs:    append([]string(nil), r.Names()...),
		LoadedAt: time.Now(),
	}
	g.seq++
	g.m[name] = &entry{sess: sess, info: info, id: g.seq}
	return info, nil
}

// taken reports whether name is registered or reserved by an Add in
// flight. The caller holds g.mu.
func (g *Registry) taken(name string) bool {
	_, ok := g.m[name]
	return ok || g.reserved[name]
}

// AddCSV parses a CSV stream (encoding it into a relation) and registers
// it under name. With header = true the first record names the columns.
// A taken name is refused before the stream is read; the stream is read
// whole (relation.ReadCSV), and its read error stays in the chain.
func (g *Registry) AddCSV(name string, rd io.Reader, header bool) (DatasetInfo, error) {
	g.mu.RLock()
	dup := g.taken(name)
	g.mu.RUnlock()
	if dup {
		return DatasetInfo{}, fmt.Errorf("service: %w: %q", ErrDatasetExists, name)
	}
	r, err := relation.ReadCSV(rd, header)
	if err != nil {
		return DatasetInfo{}, fmt.Errorf("service: parsing dataset %q: %w", name, err)
	}
	return g.Add(name, r)
}

// Get returns the session registered under name.
func (g *Registry) Get(name string) (*maimon.Session, bool) {
	s, _, ok := g.lookup(name)
	return s, ok
}

// lookup returns the session, its incarnation id, and whether it exists.
func (g *Registry) lookup(name string) (*maimon.Session, int64, bool) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	e, ok := g.m[name]
	if !ok {
		return nil, 0, false
	}
	return e.sess, e.id, true
}

// Info returns the metadata of the dataset registered under name.
func (g *Registry) Info(name string) (DatasetInfo, bool) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	e, ok := g.m[name]
	if !ok {
		return DatasetInfo{}, false
	}
	return e.info, true
}

// List returns all registered datasets, sorted by name.
func (g *Registry) List() []DatasetInfo {
	g.mu.RLock()
	defer g.mu.RUnlock()
	out := make([]DatasetInfo, 0, len(g.m))
	for _, e := range g.m {
		out = append(out, e.info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Len returns the number of registered datasets.
func (g *Registry) Len() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return len(g.m)
}

// EachSession calls fn for every registered dataset's session, in no
// particular order, under the registry's read lock — fn must be fast and
// must not call back into the registry. It backs the session-derived
// metrics the /metrics endpoint aggregates at scrape time.
func (g *Registry) EachSession(fn func(name string, s *maimon.Session)) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	for name, e := range g.m {
		fn(name, e.sess)
	}
}

// remove deletes the dataset and reports whether it existed. Jobs
// already running on it keep their session reference and finish
// normally.
func (g *Registry) remove(name string) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	_, ok := g.m[name]
	delete(g.m, name)
	return ok
}

// CloseAll closes every registered session, syncing each spill tier's
// segments; a restarted daemon rescans them and starts warm. Called at
// shutdown, after the job manager has drained — a removed-but-still-mining
// session's spill tier must not be closed under it, which is why remove
// never closes. Returns the first error.
func (g *Registry) CloseAll() error {
	g.mu.RLock()
	defer g.mu.RUnlock()
	var firstErr error
	for name, e := range g.m {
		if err := e.sess.Close(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("service: closing session %q: %w", name, err)
		}
	}
	return firstErr
}
