package webservice

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"coda/internal/core"
	"coda/internal/dataset"
	"coda/internal/mlmodels"
)

func trainedModel(t *testing.T) (core.Estimator, *dataset.Dataset) {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	ds, _, err := dataset.MakeRegression(dataset.RegressionSpec{Samples: 150, Features: 3, Informative: 3, Noise: 0.5}, rng)
	if err != nil {
		t.Fatal(err)
	}
	lr := mlmodels.NewLinearRegression()
	if err := lr.Fit(ds); err != nil {
		t.Fatal(err)
	}
	return lr, ds
}

// score posts rows to url and decodes the reply.
func score(t *testing.T, url string, rows [][]float64) (int, scoreResponse) {
	t.Helper()
	raw, err := json.Marshal(scoreRequest{Rows: rows})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out scoreResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

func TestHandlerMatchesLocalPredict(t *testing.T) {
	model, ds := trainedModel(t)
	ts := httptest.NewServer(Handler(model))
	defer ts.Close()

	status, reply := score(t, ts.URL, [][]float64{ds.X.RowCopy(0), ds.X.RowCopy(1)})
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, reply.Error)
	}
	// Remote predictions must equal local ones.
	local, err := model.Predict(ds.SliceRange(0, 2))
	if err != nil {
		t.Fatal(err)
	}
	if len(reply.Predictions) != len(local) {
		t.Fatalf("%d remote predictions for %d rows", len(reply.Predictions), len(local))
	}
	for i := range local {
		if reply.Predictions[i] != local[i] {
			t.Fatalf("remote %v != local %v", reply.Predictions[i], local[i])
		}
	}
	// Bad requests surface errors.
	if status, reply := score(t, ts.URL, nil); status != http.StatusBadRequest || reply.Error == "" {
		t.Fatalf("no rows: status %d, error %q; want a 400 with an error", status, reply.Error)
	}
}
