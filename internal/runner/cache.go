package runner

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
)

// CacheSchemaVersion is baked into every cache key. Bump it whenever the
// simulation model changes in a way that alters measurements without
// changing point configurations (calibration tweaks, scheduler fixes), so
// stale entries from older binaries are never served.
const CacheSchemaVersion = "mindgap-runner/3"

// Cache memoises point results on disk, one JSON file per entry, named by
// the SHA-256 of (CacheSchemaVersion, row type, point key). Point keys must
// encode every input that determines the simulation — the experiment
// package includes the system spec, workload, load, quality, seed, and a
// fingerprint of the calibration constants. The cache is best-effort:
// read or write failures fall back to running the point, and write
// failures are counted.
type Cache struct {
	dir                     string
	hits, misses, writeErrs atomic.Int64
}

// OpenCache opens (creating if needed) a result cache rooted at dir.
func OpenCache(dir string) (*Cache, error) {
	if dir == "" {
		return nil, fmt.Errorf("runner: empty cache dir")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("runner: open cache: %w", err)
	}
	return &Cache{dir: dir}, nil
}

// Dir returns the cache's root directory.
func (c *Cache) Dir() string { return c.dir }

// Stats returns the hit, miss and failed-write counts observed since the
// cache was opened.
func (c *Cache) Stats() (hits, misses, writeErrs int64) {
	return c.hits.Load(), c.misses.Load(), c.writeErrs.Load()
}

// path maps a point key to its entry file.
func (c *Cache) path(key string) string {
	sum := sha256.Sum256([]byte(CacheSchemaVersion + "\x00" + key))
	return filepath.Join(c.dir, hex.EncodeToString(sum[:])+".json")
}

// get loads the entry for key into out (a pointer), reporting whether a
// valid entry existed.
func (c *Cache) get(key string, out any) bool {
	b, err := os.ReadFile(c.path(key))
	if err != nil {
		c.misses.Add(1)
		return false
	}
	if err := json.Unmarshal(b, out); err != nil {
		// Corrupt or schema-mismatched entry: treat as a miss and let the
		// fresh result overwrite it.
		c.misses.Add(1)
		return false
	}
	c.hits.Add(1)
	return true
}

// put stores v under key, atomically (write to a temp file, then rename)
// so concurrent writers of the same key and interrupted runs never leave
// torn entries.
func (c *Cache) put(key string, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		c.writeErrs.Add(1)
		return
	}
	dst := c.path(key)
	tmp, err := os.CreateTemp(c.dir, "tmp-*")
	if err != nil {
		c.writeErrs.Add(1)
		return
	}
	_, werr := tmp.Write(b)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		c.writeErrs.Add(1)
		return
	}
	if err := os.Rename(tmp.Name(), dst); err != nil {
		os.Remove(tmp.Name())
		c.writeErrs.Add(1)
	}
}
