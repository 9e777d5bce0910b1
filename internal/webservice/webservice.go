// Package webservice serves a fitted model as one of the AI Web services of
// Figure 1 (IBM Watson, Azure Cognitive Services, AWS ML, Google Cloud AI):
// an HTTP scorer that complements the machine-learning capabilities of
// client and cloud nodes. Handler is coda-client serve's /score.
package webservice

import (
	"encoding/json"
	"errors"
	"log/slog"
	"net/http"

	"coda/internal/dataset"
	"coda/internal/matrix"
	"coda/internal/obs"
	"coda/internal/obs/trace"
)

// mScoredRowCount counts rows scored; requests are counted, timed and
// traced by the chain Handler is mounted on, under route="score".
var mScoredRowCount = obs.GetCounter("coda_webservice_rows_scored_total")

// scoreRequest/scoreResponse are the HTTP wire format. A reply carries
// predictions or an error, never both: an error reply has the fields of
// httpapi's JSON errors.
type scoreRequest struct {
	Rows [][]float64 `json:"rows"`
}

type scoreResponse struct {
	Predictions []float64 `json:"predictions,omitempty"`
	Error       string    `json:"error,omitempty"`
	Status      int       `json:"status,omitempty"`
	RequestID   string    `json:"request_id,omitempty"`
}

// Predictor is what Handler serves: a fitted model, such as any
// core.Estimator, or coda-client serve's pipeline that a re-search swaps.
type Predictor interface {
	Predict(ds *dataset.Dataset) ([]float64, error)
}

// Handler serves a fitted model as an AI web service: POST a JSON
// feature matrix, receive predictions — the role the paper's cloud vendors
// play in Figure 1. Mounted on an httpapi.Server for POST (coda-client
// serve's /score), the request has an id, a capped body, a span,
// per-route metrics and panic recovery, and the route table answers any
// other method; a body over the cap is a 413. Errors come back as
// structured JSON carrying the status and the request id, and are logged
// through slog.
func Handler(est Predictor) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := obs.RequestID(r.Context())
		fail := func(status int, msg string) {
			level := slog.LevelWarn
			if status >= 500 {
				level = slog.LevelError
			}
			slog.Default().Log(r.Context(), level, "score request failed",
				"request_id", id, "status", status, "err", msg)
			writeJSON(w, status, scoreResponse{Error: msg, Status: status, RequestID: id})
		}
		var req scoreRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			status := http.StatusBadRequest
			if tooLarge := new(http.MaxBytesError); errors.As(err, &tooLarge) {
				status = http.StatusRequestEntityTooLarge
			}
			fail(status, "decoding request: "+err.Error())
			return
		}
		if len(req.Rows) == 0 {
			fail(http.StatusBadRequest, "no rows")
			return
		}
		x, err := matrix.NewFromRows(req.Rows)
		if err != nil {
			fail(http.StatusBadRequest, err.Error())
			return
		}
		ds, err := dataset.New(x, nil)
		if err != nil {
			fail(http.StatusBadRequest, err.Error())
			return
		}
		preds, err := est.Predict(ds)
		if err != nil {
			fail(http.StatusInternalServerError, err.Error())
			return
		}
		mScoredRowCount.Add(int64(len(req.Rows)))
		trace.Annotate(r.Context(), trace.Int("rows", len(req.Rows)))
		writeJSON(w, http.StatusOK, scoreResponse{Predictions: preds})
	})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
