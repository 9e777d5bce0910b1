package faultinject

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"syscall"
	"testing"

	"coda/internal/retry"
)

func okServer(t *testing.T) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
	}))
	t.Cleanup(ts.Close)
	return ts
}

func TestTransportFractionsAndDeterminism(t *testing.T) {
	ts := okServer(t)
	run := func() (Counts, int, int) {
		tr := NewTransport(nil, Config{Seed: 42, DropFraction: 0.3, ErrorFraction: 0.1})
		client := &http.Client{Transport: tr}
		resets, fives := 0, 0
		for i := 0; i < 500; i++ {
			resp, err := client.Get(ts.URL)
			if err != nil {
				if !errors.Is(err, syscall.ECONNRESET) {
					t.Fatalf("dropped request surfaced %v, want ECONNRESET", err)
				}
				resets++
				continue
			}
			if resp.StatusCode == http.StatusInternalServerError {
				fives++
			}
			resp.Body.Close()
		}
		return tr.Counts(), resets, fives
	}
	c1, resets, fives := run()
	if c1.Total != 500 || c1.Dropped != resets || c1.Errored != fives {
		t.Fatalf("counts %+v disagree with observations (resets=%d 500s=%d)", c1, resets, fives)
	}
	// ~30% / ~10% with generous tolerance.
	if c1.Dropped < 100 || c1.Dropped > 200 {
		t.Fatalf("dropped %d of 500, want roughly 150", c1.Dropped)
	}
	if c1.Errored < 20 || c1.Errored > 90 {
		t.Fatalf("errored %d of 500, want roughly 50", c1.Errored)
	}
	c2, _, _ := run()
	if c1 != c2 {
		t.Fatalf("same seed must replay the same faults: %+v vs %+v", c1, c2)
	}
}

func TestInjectedFaultsAreRetryable(t *testing.T) {
	ts := okServer(t)
	tr := NewTransport(nil, Config{Seed: 7, DropFraction: 0.5, ErrorFraction: 0.2})
	client := &http.Client{Transport: tr}
	for i := 0; i < 200; i++ {
		resp, err := client.Get(ts.URL)
		if err != nil {
			if !retry.Retryable(err) {
				t.Fatalf("injected transport error must be retryable: %v", err)
			}
			continue
		}
		if resp.StatusCode >= 500 && !retry.RetryableStatus(resp.StatusCode) {
			t.Fatalf("injected status %d must be retryable", resp.StatusCode)
		}
		resp.Body.Close()
	}
}

func TestTransportConcurrentUse(t *testing.T) {
	ts := okServer(t)
	tr := NewTransport(nil, Config{Seed: 1, DropFraction: 0.2, ErrorFraction: 0.1})
	client := &http.Client{Transport: tr}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				resp, err := client.Get(ts.URL)
				if err == nil {
					resp.Body.Close()
				}
			}
		}()
	}
	wg.Wait()
	if c := tr.Counts(); c.Total != 400 {
		t.Fatalf("total %d, want 400", c.Total)
	}
}
