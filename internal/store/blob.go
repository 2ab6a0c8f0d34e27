package store

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// BlobStore is a content-addressed file store: a blob's key is the hex
// SHA-256 of its bytes, so writes are idempotent, identical payloads
// share one file, and every read self-verifies. The serving layer keeps
// result payloads here and journals only the key, which keeps the WAL
// small and lets the result cache rehydrate after a restart.
type BlobStore struct {
	dir string
}

// OpenBlobStore creates/opens a blob directory.
func OpenBlobStore(dir string) (*BlobStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: blobs %s: %w", dir, err)
	}
	return &BlobStore{dir: dir}, nil
}

// Key returns the content address of data.
func Key(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// Put stores data and returns its key. Existing blobs are not
// rewritten: under one key the bytes are immutable by construction.
func (b *BlobStore) Put(data []byte) (string, error) {
	key := Key(data)
	path := filepath.Join(b.dir, key)
	if _, err := os.Stat(path); err == nil {
		return key, nil
	}
	if err := WriteFileAtomic(path, data, 0o644); err != nil {
		return "", err
	}
	return key, nil
}

// Get returns the blob for key, verifying the content address — a
// blob file damaged on disk is reported, never returned.
func (b *BlobStore) Get(key string) ([]byte, error) {
	if !validBlobKey(key) {
		return nil, fmt.Errorf("store: invalid blob key %q", key)
	}
	data, err := os.ReadFile(filepath.Join(b.dir, key))
	if err != nil {
		return nil, fmt.Errorf("store: blob %s: %w", key, err)
	}
	if Key(data) != key {
		return nil, fmt.Errorf("store: blob %s: content does not match its address (damaged file)", key)
	}
	return data, nil
}

// Keys lists stored blob keys in sorted order.
func (b *BlobStore) Keys() ([]string, error) {
	entries, err := os.ReadDir(b.dir)
	if err != nil {
		return nil, fmt.Errorf("store: blobs %s: %w", b.dir, err)
	}
	var keys []string
	for _, e := range entries {
		if !e.IsDir() && validBlobKey(e.Name()) {
			keys = append(keys, e.Name())
		}
	}
	sort.Strings(keys)
	return keys, nil
}

// DeleteExcept removes every blob whose key is not in keep. Only names
// that are valid blob keys are candidates, so temp files and anything
// else in the directory stay. The deletions are not one atomic step: a
// crash partway leaves some unreferenced blobs, which the next call
// removes.
func (b *BlobStore) DeleteExcept(keep map[string]bool) error {
	keys, err := b.Keys()
	if err != nil {
		return err
	}
	for _, key := range keys {
		if keep[key] {
			continue
		}
		if err := os.Remove(filepath.Join(b.dir, key)); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("store: delete blob: %w", err)
		}
	}
	return nil
}

// validBlobKey accepts exactly lowercase hex SHA-256 names; anything
// else (tempfiles, path tricks) is rejected.
func validBlobKey(key string) bool {
	if len(key) != 64 {
		return false
	}
	for _, c := range key {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}
