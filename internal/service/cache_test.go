package service

import (
	"fmt"
	"testing"
)

func TestLRUBasicHitMiss(t *testing.T) {
	c := newLRUCache(2)
	if _, _, ok := c.Get("a"); ok {
		t.Fatal("empty cache hit")
	}
	c.Put("a", []byte("1"), 0)
	v, _, ok := c.Get("a")
	if !ok || string(v) != "1" {
		t.Fatalf("got %q, %v", v, ok)
	}
	hits, misses, _ := c.Stats()
	if hits != 1 || misses != 1 {
		t.Errorf("hits=%d misses=%d, want 1/1", hits, misses)
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	c := newLRUCache(2)
	c.Put("a", []byte("1"), 0)
	c.Put("b", []byte("2"), 0)
	c.Get("a") // promote a; b is now LRU
	c.Put("c", []byte("3"), 0)
	if _, _, ok := c.Get("b"); ok {
		t.Error("b should have been evicted")
	}
	if _, _, ok := c.Get("a"); !ok {
		t.Error("a should have survived (recently used)")
	}
	if _, _, ok := c.Get("c"); !ok {
		t.Error("c should be resident")
	}
	if _, _, ev := c.Stats(); ev != 1 {
		t.Errorf("evictions = %d, want 1", ev)
	}
	if c.Len() != 2 {
		t.Errorf("len = %d, want 2", c.Len())
	}
}

func TestLRURefreshDoesNotGrow(t *testing.T) {
	c := newLRUCache(2)
	c.Put("a", []byte("1"), 0)
	c.Put("a", []byte("2"), 0)
	if c.Len() != 1 {
		t.Errorf("len = %d after double put, want 1", c.Len())
	}
	v, _, _ := c.Get("a")
	if string(v) != "2" {
		t.Errorf("refresh did not replace value: %q", v)
	}
}

func TestLRUDisabled(t *testing.T) {
	c := newLRUCache(-1)
	c.Put("a", []byte("1"), 0)
	if _, _, ok := c.Get("a"); ok {
		t.Error("disabled cache stored an entry")
	}
}

func TestLRUConcurrent(t *testing.T) {
	c := newLRUCache(16)
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 500; i++ {
				k := fmt.Sprintf("k%d", (g*i)%32)
				c.Put(k, []byte(k), 0)
				c.Get(k)
			}
		}(g)
	}
	for g := 0; g < 8; g++ {
		<-done
	}
	if c.Len() > 16 {
		t.Errorf("len = %d exceeds capacity", c.Len())
	}
}
