package server

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestConcurrentIdenticalSweeps: 32 goroutines request the same
// roofline sweep while the first compute is held open. Concurrent
// misses may each evaluate (there is no in-flight dedup), but every
// client must get the same bytes, and once the cache is filled an
// identical request is a hit that costs no evaluation.
func TestConcurrentIdenticalSweeps(t *testing.T) {
	s := New(Config{})
	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	s.testHookEval = func() {
		once.Do(func() {
			close(entered)
			<-release
		})
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const clients = 32
	url := ts.URL + "/v1/platforms/gtx-titan/roofline?points=25"
	bodies := make([]string, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			resp, err := http.Get(url)
			if err != nil {
				t.Errorf("client %d: %v", slot, err)
				return
			}
			defer resp.Body.Close()
			b, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Errorf("client %d: %v", slot, err)
				return
			}
			if resp.StatusCode != http.StatusOK {
				t.Errorf("client %d: status %d: %s", slot, resp.StatusCode, b)
			}
			bodies[slot] = string(b)
		}(i)
	}
	// Hold the single compute open until it is demonstrably in flight,
	// so the other clients really do arrive concurrently.
	<-entered
	close(release)
	wg.Wait()

	evals := s.ModelEvals()
	if evals < 1 || evals > clients {
		t.Errorf("model evals = %d, want in [1, %d] for %d identical requests", evals, clients, clients)
	}
	for i := 1; i < clients; i++ {
		if bodies[i] != bodies[0] {
			t.Fatalf("client %d body differs from client 0", i)
		}
	}

	hits := s.Metrics().CacheHits()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != bodies[0] {
		t.Error("follow-up body differs from the concurrent bodies")
	}
	if got := s.Metrics().CacheHits(); got != hits+1 {
		t.Errorf("follow-up cache hits = %d, want %d", got, hits+1)
	}
	if got := s.ModelEvals(); got != evals {
		t.Errorf("follow-up model evals = %d, want %d (a cache hit)", got, evals)
	}
}

// TestHammerMixedEndpoints drives several endpoints from 32 goroutines;
// it exists to give the race detector surface area over the cache and
// metrics paths.
func TestHammerMixedEndpoints(t *testing.T) {
	s := New(Config{CacheEntries: 8})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const clients = 32
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			// Half the clients share one sweep; the rest spread over
			// distinct grids to force eviction churn.
			points := 17
			if slot%2 == 1 {
				points = 5 + slot
			}
			url := fmt.Sprintf("%s/v1/platforms/arndale-gpu/roofline?points=%d", ts.URL, points)
			for rep := 0; rep < 5; rep++ {
				resp, err := http.Get(url)
				if err != nil {
					t.Errorf("client %d: %v", slot, err)
					return
				}
				if _, err := io.Copy(io.Discard, resp.Body); err != nil {
					t.Errorf("client %d: %v", slot, err)
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("client %d: status %d", slot, resp.StatusCode)
				}
			}
			// Interleave metrics scrapes with the sweeps.
			resp, err := http.Get(ts.URL + "/metrics")
			if err != nil {
				t.Errorf("client %d metrics: %v", slot, err)
				return
			}
			if _, err := io.Copy(io.Discard, resp.Body); err != nil {
				t.Errorf("client %d metrics: %v", slot, err)
			}
			resp.Body.Close()
		}(i)
	}
	wg.Wait()
	if got := s.Metrics().Requests(); got < clients*5 {
		t.Errorf("requests recorded = %d, want >= %d", got, clients*5)
	}
}

// TestGracefulDrain starts the real daemon (listener, signal-shaped
// context), holds a request in flight, triggers shutdown, and verifies
// the in-flight request completes with 200 and Run exits cleanly within
// the drain window.
func TestGracefulDrain(t *testing.T) {
	s := New(Config{Addr: "127.0.0.1:0", DrainTimeout: 5 * time.Second})
	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	s.testHookEval = func() {
		once.Do(func() {
			close(entered)
			<-release
		})
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var stdout syncBuffer
	runErr := make(chan error, 1)
	go func() { runErr <- s.Run(ctx, &stdout, io.Discard) }()

	base := waitForListening(t, &stdout)

	reqDone := make(chan int, 1)
	go func() {
		resp, err := http.Get(base + "/v1/platforms/gtx-titan/roofline?points=9")
		if err != nil {
			reqDone <- -1
			return
		}
		defer resp.Body.Close()
		_, _ = io.Copy(io.Discard, resp.Body)
		reqDone <- resp.StatusCode
	}()

	<-entered // the request is now inside the model evaluation
	cancel()  // shutdown requested with the request still in flight

	// Give the shutdown a moment to begin, then let the handler finish.
	time.Sleep(50 * time.Millisecond)
	close(release)

	select {
	case status := <-reqDone:
		if status != http.StatusOK {
			t.Errorf("in-flight request status = %d, want 200", status)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight request never completed")
	}
	select {
	case err := <-runErr:
		if err != nil {
			t.Errorf("Run returned %v, want nil after graceful drain", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return within the drain window")
	}
}

// syncBuffer is a goroutine-safe writer capturing daemon stdout.
type syncBuffer struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// waitForListening polls the daemon's startup line and returns the base
// URL it announced.
func waitForListening(t *testing.T, out *syncBuffer) string {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		text := out.String()
		if _, rest, ok := strings.Cut(text, "listening on "); ok {
			if url, _, ok := strings.Cut(rest, "\n"); ok {
				return strings.TrimSpace(url)
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("daemon never announced its listen address")
	return ""
}
