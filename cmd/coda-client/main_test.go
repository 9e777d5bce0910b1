package main

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"coda/internal/httpapi"
	"coda/internal/mlmodels"
)

// TestScoreServerHasTimeouts: serve's listener cuts off a client that never
// finishes its headers, bounds a request and an idle connection, and runs
// /score on the httpapi chain.
func TestScoreServerHasTimeouts(t *testing.T) {
	srv := scoreServer(mlmodels.NewLinearRegression())
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
