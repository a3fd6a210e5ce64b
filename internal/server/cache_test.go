package server

import "testing"

func resp(body string) *cachedResponse {
	return &cachedResponse{status: 200, body: []byte(body)}
}

func TestLRUBasics(t *testing.T) {
	c := newLRUCache(2)
	if _, ok := c.get("a"); ok {
		t.Fatal("empty cache hit")
	}
	c.put("a", resp("A"))
	c.put("b", resp("B"))
	if got, ok := c.get("a"); !ok || string(got.body) != "A" {
		t.Fatalf("get a = %v, %v", got, ok)
	}
	// "a" is now most recently used; inserting "c" evicts "b".
	c.put("c", resp("C"))
	if _, ok := c.get("b"); ok {
		t.Error("b should have been evicted (LRU)")
	}
	if _, ok := c.get("a"); !ok {
		t.Error("a should have survived (recently used)")
	}
	if _, ok := c.get("c"); !ok {
		t.Error("c should be present")
	}
	if n := c.size(); n != 2 {
		t.Errorf("size = %d, want 2", n)
	}
}

func TestLRUOverwrite(t *testing.T) {
	c := newLRUCache(2)
	c.put("a", resp("A1"))
	c.put("a", resp("A2"))
	if got, _ := c.get("a"); string(got.body) != "A2" {
		t.Errorf("overwrite lost: %s", got.body)
	}
	if n := c.size(); n != 1 {
		t.Errorf("size = %d, want 1 after overwrite", n)
	}
}
