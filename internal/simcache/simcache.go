// Package simcache is the repository's one on-disk store. It holds two
// kinds of entry:
//
//   - results: finished simulations, keyed by what determines them —
//     trace content hash, cache configuration, transformation rule,
//     sampling or sharding tier, and engine version — so any consumer
//     about to simulate a (trace, config, rule) it has seen before can
//     return the stored statistics and rendered report instead of walking
//     the trace again. The experiments sweeps store one per sweep point;
//     the trace service stores one per simulated upload and answers
//     duplicate uploads from it.
//   - records: any other value a consumer keeps, under a string key in a
//     namespace of its own — a regenerated figure, a service job.
//
// A store is a directory with one subdirectory per namespace; results
// live in "sim". Each entry is one JSON file named by the SHA-256 of its
// full key, holding {"key": …, "value": …}, written atomically
// (write-to-temp + rename), so concurrent writers and readers — including
// separate processes sharing one directory — see either a complete entry
// or none. An absent file, a torn file, or a file whose embedded key
// differs from the one asked for reads as a miss, never as a wrong value.
// Entries are read from disk when asked for; nothing is loaded up front.
//
// Invalidation is by key, never in place: traces are content-hashed, and
// any change to simulation semantics must bump EngineVersion, which
// orphans all previous entries.
package simcache

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"tracedst/internal/cache"
	"tracedst/internal/telemetry"
	"tracedst/internal/trace"
)

// EngineVersion is part of every result key and of any record key that
// stands for simulated output. Bump it whenever simulation or
// report-rendering semantics change in any way that can alter stored
// results — stale entries then simply stop matching.
const EngineVersion = 1

// resultNS is the namespace results live in.
const resultNS = "sim"

// Key identifies one simulation result. Equal keys mean equal results;
// every field that can change the outcome must be represented.
type Key struct {
	// Trace is the trace content hash: "raw:" and the hex SHA-256 of a
	// trace file's bytes, or "recs:…" for an in-memory trace (HashRecords).
	Trace string `json:"trace"`
	// Config is the canonical configuration signature (ConfigSig).
	Config string `json:"config"`
	// Rule is the transformation-rule hash (HashText), empty for none.
	Rule string `json:"rule,omitempty"`
	// Sampling qualifies the result tier: sampling parameters or shard
	// count when those change the (scaled or flush-at-boundary) result.
	Sampling string `json:"sampling,omitempty"`
	// Engine is the EngineVersion the result was produced under.
	Engine int `json:"engine"`
}

// digest is the key's file name: SHA-256 over an unambiguous encoding.
func (k Key) digest() string {
	h := sha256.New()
	fmt.Fprintf(h, "trace=%s\x00config=%s\x00rule=%s\x00sampling=%s\x00engine=%d\x00",
		k.Trace, k.Config, k.Rule, k.Sampling, k.Engine)
	return hex.EncodeToString(h.Sum(nil))
}

// recordDigest is a record's file name: SHA-256 over its namespace and key.
func recordDigest(ns, key string) string {
	sum := sha256.Sum256([]byte(ns + "\x00" + key))
	return hex.EncodeToString(sum[:])
}

// Entry is one stored result. Consumers populate what they have: sweeps
// store miss totals, the service stores the full report.
type Entry struct {
	// Records is how many records the simulation consumed.
	Records int64 `json:"records"`
	// BadLines and Warnings carry the ingest diagnostics of the original
	// run, so a cached service job reports identically to a fresh one.
	BadLines int `json:"bad_lines,omitempty"`
	Warnings int `json:"warnings,omitempty"`
	// Misses is the total miss count (demand misses, as Stats.Misses).
	Misses int64 `json:"misses"`
	// Report is the rendered text report, byte-for-byte.
	Report string `json:"report,omitempty"`
}

// envelope is the on-disk form of every entry: the key rides along so a
// reader can reject collisions and misplaced files, and decoding into the
// typed envelope reads each file exactly once.
type envelope[K comparable, V any] struct {
	Key   K `json:"key"`
	Value V `json:"value"`
}

// Store is a handle on one store directory. All methods are safe for
// concurrent use; distinct processes may share a directory.
type Store struct {
	dir string

	lookups *telemetry.Counter
	hits    *telemetry.Counter
	misses  *telemetry.Counter
	puts    *telemetry.Counter

	recordLookups *telemetry.Counter
	recordHits    *telemetry.Counter
}

// Open returns a Store over dir, creating it if needed. Its telemetry
// registers on reg — nil means the default registry — eagerly, so
// manifests show zeros rather than omitting the counters on an idle
// store: result lookups, hits, misses and stores
// (simcache.lookups/hits/misses/puts, with lookups == hits + misses), and
// record reads and the reads that found a record
// (simcache.record_lookups/record_hits).
func Open(dir string, reg *telemetry.Registry) (*Store, error) {
	if reg == nil {
		reg = telemetry.Default()
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("simcache: %w", err)
	}
	return &Store{
		dir:     dir,
		lookups: reg.Counter("simcache.lookups"),
		hits:    reg.Counter("simcache.hits"),
		misses:  reg.Counter("simcache.misses"),
		puts:    reg.Counter("simcache.puts"),

		recordLookups: reg.Counter("simcache.record_lookups"),
		recordHits:    reg.Counter("simcache.record_hits"),
	}, nil
}

func (s *Store) path(ns, digest string) string {
	return filepath.Join(s.dir, ns, digest+".json")
}

// Result looks k up. A malformed or mismatching file counts as a miss —
// the caller re-simulates and overwrites it. Every lookup is exactly one
// hit or one miss (simcache.lookups == hits + misses).
func (s *Store) Result(k Key) (Entry, bool, error) {
	s.lookups.Inc()
	e, ok, err := load[Key, Entry](s.path(resultNS, k.digest()), k)
	if ok {
		s.hits.Inc()
	} else {
		s.misses.Inc()
	}
	return e, ok, err
}

// PutResult stores e under k, atomically replacing any previous entry.
func (s *Store) PutResult(k Key, e Entry) error {
	if err := s.write(resultNS, k.digest(), envelope[Key, Entry]{k, e}); err != nil {
		return err
	}
	s.puts.Inc()
	return nil
}

// Record reads the record stored under key in namespace ns, counting the
// read and, if it found the record, the hit.
func Record[V any](s *Store, ns, key string) (V, bool, error) {
	s.recordLookups.Inc()
	v, ok, err := load[string, V](s.path(ns, recordDigest(ns, key)), key)
	if ok {
		s.recordHits.Inc()
	}
	return v, ok, err
}

// PutRecord stores v under key in namespace ns, atomically replacing any
// previous record.
func (s *Store) PutRecord(ns, key string, v any) error {
	return s.write(ns, recordDigest(ns, key), envelope[string, any]{key, v})
}

// Records returns every intact record of namespace ns, in key order,
// reading no other namespace. Torn, foreign and misplaced files are
// skipped.
func Records[V any](s *Store, ns string) ([]V, error) {
	dir := filepath.Join(s.dir, ns)
	ents, err := os.ReadDir(dir)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("simcache: %w", err)
	}
	var found []envelope[string, V]
	for _, de := range ents {
		digest, ok := strings.CutSuffix(de.Name(), ".json")
		if !ok || de.IsDir() {
			continue // in-flight temp files end in .tmpNNN
		}
		data, err := os.ReadFile(filepath.Join(dir, de.Name()))
		if errors.Is(err, fs.ErrNotExist) {
			continue
		}
		if err != nil {
			return nil, fmt.Errorf("simcache: %w", err)
		}
		var env envelope[string, V]
		if json.Unmarshal(data, &env) != nil || recordDigest(ns, env.Key) != digest {
			continue
		}
		found = append(found, env)
	}
	sort.Slice(found, func(a, b int) bool { return found[a].Key < found[b].Key })
	out := make([]V, len(found))
	for i := range found {
		out[i] = found[i].Value
	}
	return out, nil
}

// load reads the entry at path: a hit only when the file is intact and
// embeds the key k.
func load[K comparable, V any](path string, k K) (V, bool, error) {
	var env envelope[K, V]
	data, err := os.ReadFile(path)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return env.Value, false, nil
		}
		return env.Value, false, fmt.Errorf("simcache: %w", err)
	}
	if err := json.Unmarshal(data, &env); err != nil || env.Key != k {
		var zero V
		return zero, false, nil
	}
	return env.Value, true, nil
}

// write stores one envelope atomically. The first write to a namespace
// finds no directory and creates it; every later one skips that work.
func (s *Store) write(ns, digest string, env any) error {
	data, err := json.Marshal(env)
	if err != nil {
		return fmt.Errorf("simcache: %w", err)
	}
	data = append(data, '\n')
	path := s.path(ns, digest)
	err = trace.WriteFileAtomic(path, data, 0o644)
	if errors.Is(err, fs.ErrNotExist) {
		if err = os.MkdirAll(filepath.Dir(path), 0o755); err == nil {
			err = trace.WriteFileAtomic(path, data, 0o644)
		}
	}
	if err != nil {
		return fmt.Errorf("simcache: %w", err)
	}
	return nil
}

// ConfigSig renders a cache configuration canonically for keys. Every
// field that changes simulation results appears; the display Name does
// not (it never reaches the report body).
func ConfigSig(cfg cache.Config) string {
	return fmt.Sprintf("size=%d bsize=%d assoc=%d repl=%s write=%s alloc=%s pf=%s seed=%d classify=%t",
		cfg.Size, cfg.BlockSize, cfg.Assoc, cfg.Repl, cfg.Write, cfg.Alloc, cfg.Prefetch,
		cfg.Seed, cfg.ClassifyMisses)
}

// HashText hashes an arbitrary text artifact (a transformation rule
// source, for example) for use in a key. Empty text hashes to "".
func HashText(src string) string {
	if src == "" {
		return ""
	}
	sum := sha256.Sum256([]byte(src))
	return "txt:" + hex.EncodeToString(sum[:])
}

// HashRecords hashes an in-memory record slice (the experiments' memoized
// workload traces) by folding each record's canonical text rendering.
func HashRecords(recs []trace.Record) string {
	h := sha256.New()
	var buf []byte
	for i := range recs {
		buf = append(recs[i].AppendText(buf[:0]), '\n')
		h.Write(buf)
	}
	return "recs:" + hex.EncodeToString(h.Sum(nil))
}
