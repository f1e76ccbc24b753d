package results

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/collectors"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/workload"
)

// keyVersion stamps the cell-identity scheme. Bump it when Outcome's
// schema or a key component's meaning changes: old files simply stop
// matching and cells recompute, instead of deserialising garbage.
// v2: Outcome grew the Arena occupancy extract (the slab-arena Info
// counters), whose values depend on the allocator's page/size-class
// layout — v1 cells predate that layout and must recompute.
// v3: Outcome grew the cycle-phase extract (Obs) and the provenance
// stamp (Prov); v2 cells carry neither, so they must recompute rather
// than read back as cells with no observability.
const keyVersion = "v3"

// Key is the canonical identity of a cell: every field that determines
// its deterministic outcome. The collector spec is canonicalised
// through the registry grammar (so "cg-recycle" and "cg+recycle" are
// one cell) and the workload's RNG seed is included explicitly (so a
// change to the seeding scheme invalidates the store rather than
// silently mixing event streams). HeapBytes stays in its symbolic form
// — 0 for the demographics default, TightHeap for the workload budget —
// which is itself deterministic per job.
func Key(job engine.Job) (string, error) {
	spec, err := collectors.Canonical(job.Collector)
	if err != nil {
		return "", err
	}
	if _, err := workload.ByName(job.Workload); err != nil {
		return "", err
	}
	reps := job.Repeats
	if reps < 1 {
		reps = 1
	}
	return fmt.Sprintf("%s w=%s s=%d c=%s h=%d g=%d r=%d seed=%d",
		keyVersion, job.Workload, job.Size, spec,
		job.HeapBytes, job.GCEvery, reps, workload.Seed(job.Workload, job.Size)), nil
}

// Store is the content-addressed on-disk cell store: one JSON file per
// completed cell, named by the SHA-256 of its Key. Concurrent writers
// (multiple sweep processes, a coordinator and its workers) are safe:
// files land via write-to-temp + rename, and whichever rename wins
// recorded the same deterministic outcome.
type Store struct {
	dir string
}

// Open creates dir if needed and returns the store over it.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return nil, fmt.Errorf("results: open store: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Dir reports the store's directory.
func (s *Store) Dir() string { return s.dir }

// KeyHash is the content-address of a cell key: the hex SHA-256 that
// names its store file and — because cells are deterministic functions
// of their key — doubles as a strong HTTP ETag for served outcomes.
func KeyHash(key string) string {
	sum := sha256.Sum256([]byte(key))
	return hex.EncodeToString(sum[:])
}

func (s *Store) path(key string) string {
	return filepath.Join(s.dir, KeyHash(key)+".json")
}

// GetKey returns the stored cell for an exact key string, as the raw
// Encode bytes — the shape an HTTP cell endpoint serves verbatim. The
// stored cell is decoded and its key recomputed before returning, so a
// torn or stale file reads as a miss plus the underlying error, exactly
// like Get.
func (s *Store) GetKey(key string) ([]byte, bool, error) {
	data, err := os.ReadFile(s.path(key))
	if os.IsNotExist(err) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, err
	}
	o, err := Decode(data)
	if err != nil {
		return nil, false, err
	}
	back, err := Key(o.Job)
	if err != nil || back != key {
		return nil, false, fmt.Errorf("results: store file for %q holds cell %q", key, back)
	}
	return data, true, nil
}

// Get returns the stored outcome of job, if present. A stored file that
// fails to decode or whose recomputed key mismatches (schema drift, a
// truncated write from a kill -9 that beat the rename) reads as a miss
// plus the underlying error; resume treats it as not-yet-computed.
func (s *Store) Get(job engine.Job) (Outcome, bool, error) {
	key, err := Key(job)
	if err != nil {
		return Outcome{}, false, err
	}
	data, err := os.ReadFile(s.path(key))
	if os.IsNotExist(err) {
		return Outcome{}, false, nil
	}
	if err != nil {
		return Outcome{}, false, err
	}
	o, err := Decode(data)
	if err != nil {
		return Outcome{}, false, err
	}
	back, err := Key(o.Job)
	if err != nil || back != key {
		return Outcome{}, false, fmt.Errorf("results: store file for %q holds cell %q", key, back)
	}
	return o, true, nil
}

// Put stores a completed cell atomically. Failed outcomes are not
// stored — cells are deterministic, but a panic bug fixed in a later
// build must not leave a poisoned cache behind.
func (s *Store) Put(o Outcome) error {
	if o.Err != "" {
		return nil
	}
	key, err := Key(o.Job)
	if err != nil {
		return err
	}
	data, err := Encode(o)
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(s.dir, ".cell-*")
	if err != nil {
		return fmt.Errorf("results: store put: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("results: store put: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("results: store put: %w", err)
	}
	if err := os.Rename(tmp.Name(), s.path(key)); err != nil {
		return fmt.Errorf("results: store put: %w", err)
	}
	return nil
}

// Len counts the stored cells (diagnostics; O(dir)).
func (s *Store) Len() (int, error) {
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return 0, err
	}
	n := 0
	for _, e := range ents {
		if !e.IsDir() && filepath.Ext(e.Name()) == ".json" {
			n++
		}
	}
	return n, nil
}

// Resuming wraps a Backend with a Store: cells already on disk are
// emitted without recomputation, the rest run on the inner backend and
// are stored as they complete. Emission stays in strict index order
// across both sources, so a resumed sweep renders byte-identically to a
// cold one.
type Resuming struct {
	Store *Store
	Next  Backend
	// Obs, when non-nil, counts store hits for a live debug surface
	// (computed cells are counted by the inner backend).
	Obs *obs.Progress

	stored, computed int
}

// Stats reports how many cells Runs on this backend have served from
// the store and how many they had computed, cumulatively. A sweep
// submits its distinct cells as one batch, so on a cold store every
// cell counts as computed; cells count as stored only when an earlier
// run left them on disk.
func (r *Resuming) Stats() (stored, computed int) { return r.stored, r.computed }

// Run implements Backend.
func (r *Resuming) Run(jobs []engine.Job, emit func(i int, o Outcome)) error {
	outs := make([]Outcome, len(jobs))
	have := make([]bool, len(jobs))
	var missing []int
	for i, job := range jobs {
		o, ok, err := r.Store.Get(job)
		if err != nil {
			// Unreadable cells (torn write from a killed sweep) recompute.
			ok = false
		}
		if ok {
			o.Stored = true
			outs[i], have[i] = o, true
			r.stored++
			r.Obs.AddStored(1)
		} else {
			missing = append(missing, i)
		}
	}

	// Emit the in-order prefix that is already satisfied, then interleave
	// inner completions: the inner backend emits its sub-batch in its own
	// index order, which maps monotonically onto ours, so the merged
	// emission is in global index order.
	next := 0
	flush := func() {
		for next < len(jobs) && have[next] {
			emit(next, outs[next])
			next++
		}
	}
	flush()
	if len(missing) == 0 {
		return nil
	}

	sub := make([]engine.Job, len(missing))
	for mi, gi := range missing {
		sub[mi] = jobs[gi]
	}
	var putErr error
	err := r.Next.Run(sub, func(mi int, o Outcome) {
		gi := missing[mi]
		if err := r.Store.Put(o); err != nil && putErr == nil {
			putErr = err
		}
		outs[gi], have[gi] = o, true
		r.computed++
		flush()
	})
	if err != nil {
		return err
	}
	if putErr != nil {
		return putErr
	}
	if next != len(jobs) {
		return fmt.Errorf("results: resume emitted %d of %d cells", next, len(jobs))
	}
	return nil
}
