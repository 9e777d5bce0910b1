// Package webservice models the AI Web services of Figure 1 (IBM Watson,
// Azure Cognitive Services, AWS ML, Google Cloud AI): HTTP-accessible
// scorers that complement the machine-learning capabilities of client and
// cloud nodes. It provides
//
//   - Service: the scoring contract,
//   - MockService: a latency/cost-modelled stand-in for a commercial API,
//   - Handler/HTTPService: serve any fitted model over HTTP and
//     call it remotely,
//   - ServiceEstimator: plug a remote service into a Transformer-Estimator
//     Graph as just another model option.
package webservice

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"sync"
	"time"

	"coda/internal/core"
	"coda/internal/dataset"
	"coda/internal/matrix"
	"coda/internal/obs"
	"coda/internal/obs/trace"
)

// mScoredRowCount counts rows scored; requests are counted, timed and
// traced by the chain Handler is mounted on, under route="score".
var mScoredRowCount = obs.GetCounter("coda_webservice_rows_scored_total")

// Service scores feature rows remotely.
type Service interface {
	// Name identifies the service in pipeline specs.
	Name() string
	// Score returns one prediction per feature row.
	Score(ctx context.Context, rows [][]float64) ([]float64, error)
}

// MockService simulates a commercial AI web service: a fixed scoring
// function behind per-call latency and metered cost. Experiments use it to
// account for the price of outsourcing predictions.
type MockService struct {
	ServiceName string
	Latency     time.Duration // added per call
	CostPerCall float64

	// Fn scores one row; required.
	Fn func(row []float64) float64

	mu    sync.Mutex
	calls int
	cost  float64
}

// Name implements Service.
func (m *MockService) Name() string {
	if m.ServiceName == "" {
		return "mock-webservice"
	}
	return m.ServiceName
}

// Score implements Service, honouring context cancellation during the
// simulated latency.
func (m *MockService) Score(ctx context.Context, rows [][]float64) ([]float64, error) {
	if m.Fn == nil {
		return nil, fmt.Errorf("webservice: %s has no scoring function", m.Name())
	}
	if m.Latency > 0 {
		select {
		case <-time.After(m.Latency):
		case <-ctx.Done():
			return nil, fmt.Errorf("webservice: %s: %w", m.Name(), ctx.Err())
		}
	}
	out := make([]float64, len(rows))
	for i, r := range rows {
		out[i] = m.Fn(r)
	}
	m.mu.Lock()
	m.calls++
	m.cost += m.CostPerCall
	m.mu.Unlock()
	return out, nil
}

// Usage reports accumulated calls and cost.
func (m *MockService) Usage() (calls int, cost float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.calls, m.cost
}

// scoreRequest/scoreResponse are the HTTP wire format.
type scoreRequest struct {
	Rows [][]float64 `json:"rows"`
}

type scoreResponse struct {
	Predictions []float64 `json:"predictions"`
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
// play in Figure 1. Mounted on an httpapi.Server (coda-client serve's
// /score), the request has an id, a capped body, a span, per-route metrics
// and panic recovery; a body over the cap is a 413. Errors come back as
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
		if r.Method != http.MethodPost {
			fail(http.StatusMethodNotAllowed, "POST only")
			return
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

// HTTPService calls a remote scoring endpoint (one served by Handler, or
// any API speaking the same JSON contract).
type HTTPService struct {
	ServiceName string
	URL         string
	HTTP        *http.Client
}

// NewHTTPService builds a client for a remote scorer.
func NewHTTPService(name, url string) *HTTPService {
	return &HTTPService{ServiceName: name, URL: url, HTTP: &http.Client{Timeout: 30 * time.Second}}
}

// Name implements Service.
func (h *HTTPService) Name() string { return h.ServiceName }

// Score implements Service.
func (h *HTTPService) Score(ctx context.Context, rows [][]float64) ([]float64, error) {
	raw, err := json.Marshal(scoreRequest{Rows: rows})
	if err != nil {
		return nil, fmt.Errorf("webservice: encoding request: %w", err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, h.URL, bytes.NewReader(raw))
	if err != nil {
		return nil, fmt.Errorf("webservice: building request: %w", err)
	}
	req.Header.Set("Content-Type", "application/json")
	client := h.HTTP
	if client == nil {
		client = http.DefaultClient
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("webservice: %s: %w", h.Name(), err)
	}
	defer resp.Body.Close()
	var out scoreResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, fmt.Errorf("webservice: decoding response: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("webservice: %s returned %d: %s", h.Name(), resp.StatusCode, out.Error)
	}
	return out.Predictions, nil
}

// ErrRemoteOnly is returned when a ServiceEstimator is asked to train;
// remote services are pre-trained, so Fit only validates the data.
var ErrRemoteOnly = errors.New("webservice: remote services cannot be trained locally")

// ServiceEstimator adapts a Service to core.Estimator so a remote AI web
// service appears in a Transformer-Estimator Graph as one more modelling
// option — the paper's "full range of analytics capabilities from multiple
// parties".
type ServiceEstimator struct {
	Service Service
	// Timeout bounds each remote call (default 30s).
	Timeout time.Duration

	features int
}

// NewServiceEstimator wraps a service.
func NewServiceEstimator(s Service) *ServiceEstimator {
	return &ServiceEstimator{Service: s, Timeout: 30 * time.Second}
}

// Name implements core.Component.
func (s *ServiceEstimator) Name() string { return s.Service.Name() }

// SetParam implements core.Component; remote services expose no tunables.
func (s *ServiceEstimator) SetParam(key string, _ float64) error {
	return fmt.Errorf("webservice: %s has no parameter %q", s.Name(), key)
}

// Params implements core.Component.
func (s *ServiceEstimator) Params() map[string]float64 { return nil }

// Clone implements core.Estimator.
func (s *ServiceEstimator) Clone() core.Estimator {
	return &ServiceEstimator{Service: s.Service, Timeout: s.Timeout}
}

// Fit records the expected feature width; the remote model is pre-trained.
func (s *ServiceEstimator) Fit(ds *dataset.Dataset) error {
	if ds.NumFeatures() == 0 {
		return fmt.Errorf("webservice: %s: empty feature matrix", s.Name())
	}
	s.features = ds.NumFeatures()
	return nil
}

// Predict calls the remote service.
func (s *ServiceEstimator) Predict(ds *dataset.Dataset) ([]float64, error) {
	if s.features == 0 {
		return nil, fmt.Errorf("webservice: %s not fitted", s.Name())
	}
	if ds.NumFeatures() != s.features {
		return nil, fmt.Errorf("webservice: %s fitted with %d features, got %d", s.Name(), s.features, ds.NumFeatures())
	}
	rows := make([][]float64, ds.NumSamples())
	for i := range rows {
		rows[i] = ds.X.RowCopy(i)
	}
	timeout := s.Timeout
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	preds, err := s.Service.Score(ctx, rows)
	if err != nil {
		return nil, err
	}
	if len(preds) != len(rows) {
		return nil, fmt.Errorf("webservice: %s returned %d predictions for %d rows", s.Name(), len(preds), len(rows))
	}
	return preds, nil
}
