package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sync"
)

// refFile is refs.json: the sha256 of every result payload a run can
// produce, per workload and request key. Solver seeds do not depend on
// the workload seed, so the references hold for every seed.
type refFile struct {
	Workloads map[string]map[string]string `json:"workloads"`
}

func loadRefs(path string) (*refFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf refFile
	if err := json.Unmarshal(data, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rf, nil
}

func writeRefs(path string, rf *refFile) error {
	// encoding/json writes map keys sorted, so regenerating the file
	// changes only the hashes that changed.
	data, err := json.MarshalIndent(rf, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func payloadHash(payload []byte) string {
	sum := sha256.Sum256(payload)
	return hex.EncodeToString(sum[:])
}

// checker verifies result payloads. Every key's payload must be
// byte-identical across all responses and hash to its committed
// reference, when refs.json has one.
type checker struct {
	refs map[string]string

	mu       sync.Mutex
	seen     map[string]string // key → sha256 of the first payload
	refHits  int               // payloads checked against a reference
	failures int
	firstErr string
}

func newChecker(refs map[string]string) *checker {
	return &checker{refs: refs, seen: map[string]string{}}
}

// check records one payload for key and reports whether it passed.
func (c *checker) check(key string, payload []byte) bool {
	h := payloadHash(payload)
	c.mu.Lock()
	defer c.mu.Unlock()
	var err string
	if prev, ok := c.seen[key]; ok && prev != h {
		err = fmt.Sprintf("%s: payload sha256 %s differs from an earlier response (%s)", key, h[:12], prev[:12])
	} else if !ok {
		c.seen[key] = h
	}
	if want, ok := c.refs[key]; ok && err == "" {
		c.refHits++
		if want != h {
			err = fmt.Sprintf("%s: payload sha256 %s, reference %s", key, h[:12], want[:12])
		}
	}
	if err == "" {
		return true
	}
	c.failures++
	if c.firstErr == "" {
		c.firstErr = err
	}
	return false
}

// fail records a failure that is not a payload mismatch (an HTTP error,
// a refused request, a solve error).
func (c *checker) fail(format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.failures++
	if c.firstErr == "" {
		c.firstErr = fmt.Sprintf(format, args...)
	}
}

func (c *checker) stats() (failures, refHits, keys int, firstErr string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.failures, c.refHits, len(c.seen), c.firstErr
}
