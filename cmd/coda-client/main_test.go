package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"coda/internal/core"
	"coda/internal/dataset"
	"coda/internal/httpapi"
	"coda/internal/mlmodels"
)

// TestScoreServerHasTimeouts: serve's listener cuts off a client that never
// finishes its headers, bounds a request and an idle connection, and runs
// /score on the httpapi chain.
func TestScoreServerHasTimeouts(t *testing.T) {
	srv := scoreServer(mlmodels.NewLinearRegression(), nil)
	if srv.ReadHeaderTimeout <= 0 || srv.ReadTimeout <= 0 || srv.WriteTimeout <= 0 || srv.IdleTimeout <= 0 {
		t.Fatalf("timeouts: header %v, read %v, write %v, idle %v; want every one set",
			srv.ReadHeaderTimeout, srv.ReadTimeout, srv.WriteTimeout, srv.IdleTimeout)
	}
	if _, ok := srv.Handler.(*httpapi.Server); !ok {
		t.Fatalf("serve's handler is %T, want the *httpapi.Server chain", srv.Handler)
	}
	// /score is mounted: a bad request reaches the scorer and is answered
	// by it, not by the mux's 404.
	rr := httptest.NewRecorder()
	srv.Handler.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/score", strings.NewReader("{")))
	if rr.Code != http.StatusBadRequest || !strings.Contains(rr.Body.String(), `"status":400`) {
		t.Fatalf("malformed /score body: status %d, %s; want the scorer's JSON 400", rr.Code, rr.Body.String())
	}
}

// fittedPipeline fits a one-model pipeline on ds.
func fittedPipeline(t *testing.T, model core.Estimator, ds *dataset.Dataset) *core.Pipeline {
	t.Helper()
	g := core.NewGraph()
	g.AddRegressionModels(model)
	if err := g.Finalize(); err != nil {
		t.Fatal(err)
	}
	p, err := core.NewPipeline(g.Paths()[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Fit(ds); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestScoreAnswersDuringSwap: while a re-search's winners are swapped in
// behind /score, over and over, every scoring request is answered in full
// by one pipeline or the other.
func TestScoreAnswersDuringSwap(t *testing.T) {
	ds, _, err := dataset.MakeRegression(dataset.RegressionSpec{Samples: 120, Features: 6, Informative: 3, Noise: 1},
		rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	pipelines := []*core.Pipeline{
		fittedPipeline(t, mlmodels.NewLinearRegression(), ds),
		fittedPipeline(t, mlmodels.NewKNN(mlmodels.KNNRegression, 5), ds),
	}
	served := &servedPipeline{}
	served.Store(pipelines[0])
	ts := httptest.NewServer(scoreServer(served, nil).Handler)
	defer ts.Close()

	done := make(chan struct{})
	swapped := make(chan int)
	go func() {
		n := 0
		for ; ; n++ {
			select {
			case <-done:
				swapped <- n
				return
			default:
				served.Store(pipelines[n%2])
			}
		}
	}()
	body := []byte(`{"rows": [[0.1, 0.2, 0.3, 0.4, 0.5, 0.6], [1, 1, 1, 1, 1, 1], [-2, 0, 2, 0, -2, 0]]}`)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				resp, err := http.Post(ts.URL+"/score", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				var scored struct {
					Predictions []float64 `json:"predictions"`
				}
				err = json.NewDecoder(resp.Body).Decode(&scored)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK || err != nil || len(scored.Predictions) != 3 {
					t.Errorf("/score during a swap: status %d, %d predictions (%v); want 200 and 3", resp.StatusCode, len(scored.Predictions), err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(done)
	if n := <-swapped; n < 2 {
		t.Fatalf("the pipeline was swapped %d times while /score answered, want several", n)
	}
}

// TestServeTriggerNeedsKey: a re-search trigger follows an object on the
// home store, so serve refuses one without -key and says so.
func TestServeTriggerNeedsKey(t *testing.T) {
	ctx := context.Background()
	for name, err := range map[string]error{
		"-recompute-every": runServe(ctx, []string{"-recompute-every", "1"}),
		"-recompute-bytes": runServe(ctx, []string{"-recompute-bytes", "1"}),
	} {
		if err == nil || !strings.Contains(err.Error(), "-key") {
			t.Errorf("serve %s 1 without -key: %v; want an error naming -key", name, err)
		}
	}
}

// TestDebugAddrMustBind: a -debug-addr whose port is taken fails the
// command instead of leaving it running without its debug listener.
func TestDebugAddrMustBind(t *testing.T) {
	taken, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer taken.Close()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	lf := addLogFlags(fs)
	if err := fs.Parse([]string{"-log-level", "error", "-debug-addr", taken.Addr().String()}); err != nil {
		t.Fatal(err)
	}
	if err := lf.setup(); err == nil {
		t.Fatalf("setup with -debug-addr %s already taken: nil error, want the bind failure", taken.Addr())
	}
}
