package experiments

import (
	"reflect"
	"strconv"
	"strings"
	"testing"
)

func runQuick(t *testing.T, id string) *Table {
	t.Helper()
	r, err := ByID(id)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := r.Run(Config{Seed: 1, Quick: true})
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	if tbl.ID != id || len(tbl.Rows) == 0 {
		t.Fatalf("%s: empty table %+v", id, tbl)
	}
	out := tbl.Format()
	if !strings.Contains(out, id) {
		t.Fatalf("%s: Format missing header:\n%s", id, out)
	}
	return tbl
}

func cell(t *testing.T, tbl *Table, row, col int) string {
	t.Helper()
	if row >= len(tbl.Rows) || col >= len(tbl.Rows[row]) {
		t.Fatalf("table %s has no cell (%d,%d):\n%s", tbl.ID, row, col, tbl.Format())
	}
	return tbl.Rows[row][col]
}

func cellFloat(t *testing.T, tbl *Table, row, col int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(cell(t, tbl, row, col), 64)
	if err != nil {
		t.Fatalf("table %s cell (%d,%d) = %q not a number", tbl.ID, row, col, cell(t, tbl, row, col))
	}
	return v
}

func TestByIDUnknown(t *testing.T) {
	if _, err := ByID("nope"); err == nil {
		t.Fatal("want unknown-experiment error")
	}
}

func TestAllRunnersListed(t *testing.T) {
	ids := map[string]bool{}
	for _, r := range All() {
		if ids[r.ID] {
			t.Fatalf("duplicate runner %s", r.ID)
		}
		ids[r.ID] = true
	}
	for _, want := range []string{"T1", "T2", "F1", "F2", "F3", "F4", "F5", "F6", "F7", "F8", "F9", "F10", "F11", "F12", "S1", "S2", "S3", "S4"} {
		if !ids[want] {
			t.Fatalf("missing runner %s", want)
		}
	}
}

func TestT1(t *testing.T) {
	tbl := runQuick(t, "T1")
	if len(tbl.Rows) != 4 {
		t.Fatalf("T1 should have 4 evaluation x score rows:\n%s", tbl.Format())
	}
	// On a linear problem, linear regression should win under RMSE.
	if !strings.Contains(cell(t, tbl, 0, 3), "linearregression") {
		t.Fatalf("linear data should pick linearregression:\n%s", tbl.Format())
	}
}

func TestF3PipelineCount(t *testing.T) {
	tbl := runQuick(t, "F3")
	if got := cell(t, tbl, 0, 1); got != "36" {
		t.Fatalf("Figure 3 pipeline count = %s, paper says 36", got)
	}
	if got := cell(t, tbl, 1, 1); got != "72" {
		t.Fatalf("grid expansion = %s, want 72", got)
	}
}

func TestF4VarianceShrinksWithK(t *testing.T) {
	tbl := runQuick(t, "F4")
	std2 := cellFloat(t, tbl, 0, 3)
	std10 := cellFloat(t, tbl, 2, 3)
	if std10 >= std2 {
		t.Fatalf("CV estimate stddev should shrink from K=2 (%v) to K=10 (%v):\n%s", std2, std10, tbl.Format())
	}
}

func TestF12NaiveKFoldIsOptimistic(t *testing.T) {
	tbl := runQuick(t, "F12")
	honest := cellFloat(t, tbl, 0, 1)
	naive := cellFloat(t, tbl, 1, 1)
	if naive >= honest {
		t.Fatalf("naive K-fold RMSE %v should be optimistic vs sliding split %v", naive, honest)
	}
}

func TestF2CooperationShape(t *testing.T) {
	tbl := runQuick(t, "F2")
	// Rows alternate (n, false), (n, true). For the largest n, independent
	// redundancy == n while cooperative <= 1.
	last := len(tbl.Rows) - 1
	coopRed := cellFloat(t, tbl, last, 4)
	indepRed := cellFloat(t, tbl, last-1, 4)
	if coopRed > 1.0 {
		t.Fatalf("cooperative redundancy %v > 1:\n%s", coopRed, tbl.Format())
	}
	if indepRed < 3.9 { // 4 clients in quick mode
		t.Fatalf("independent redundancy %v, want ~4:\n%s", indepRed, tbl.Format())
	}
	// Every cooperating client ends with the whole table: what it did not
	// compute, it read from the DARR.
	for r := 1; r < len(tbl.Rows); r += 2 {
		clients, unique, computed, hits := cellFloat(t, tbl, r, 0), cellFloat(t, tbl, r, 2), cellFloat(t, tbl, r, 3), cellFloat(t, tbl, r, 5)
		if hits != clients*unique-computed {
			t.Fatalf("row %d: %v cache hits, want clients x unique units - total computed = %v:\n%s", r, hits, clients*unique-computed, tbl.Format())
		}
	}
}

func TestS1DeltaGrowsWithEditFraction(t *testing.T) {
	tbl := runQuick(t, "S1")
	// Within the first object size, delta/full ratio grows with edit
	// fraction, and the 0.1% edit row is sent as a delta.
	r0 := cellFloat(t, tbl, 0, 3)
	r3 := cellFloat(t, tbl, 3, 3)
	if r0 >= r3 {
		t.Fatalf("delta ratio should grow with edits: %v vs %v", r0, r3)
	}
	if cell(t, tbl, 0, 4) != "delta" {
		t.Fatalf("tiny edit should be sent as delta:\n%s", tbl.Format())
	}
	if cell(t, tbl, 3, 4) != "full" {
		t.Fatalf("50%% rewrite should be sent full:\n%s", tbl.Format())
	}
}

func TestS2ModeOrdering(t *testing.T) {
	tbl := runQuick(t, "S2")
	// Rows: pull, push-value, push-delta, push-notify.
	pullBytes := cellFloat(t, tbl, 0, 2)
	valueBytes := cellFloat(t, tbl, 1, 2)
	deltaBytes := cellFloat(t, tbl, 2, 2)
	if !(deltaBytes < valueBytes) {
		t.Fatalf("push-delta (%v) should cost less than push-value (%v)", deltaBytes, valueBytes)
	}
	if !(pullBytes < valueBytes) {
		t.Fatalf("periodic pull (%v) should cost less than push-value (%v)", pullBytes, valueBytes)
	}
	// Push modes that carry payloads are never stale; pull is.
	if cellFloat(t, tbl, 1, 4) != 0 || cellFloat(t, tbl, 2, 4) != 0 {
		t.Fatalf("push-value/push-delta should have zero stale reads:\n%s", tbl.Format())
	}
	if cellFloat(t, tbl, 0, 4) == 0 {
		t.Fatalf("pull should be stale between pulls:\n%s", tbl.Format())
	}
}

func TestS3RetrainingHelpsUnderDrift(t *testing.T) {
	tbl := runQuick(t, "S3")
	neverMAE := cellFloat(t, tbl, 0, 2)
	count25MAE := cellFloat(t, tbl, 1, 2)
	if count25MAE >= neverMAE {
		t.Fatalf("frequent retraining (%v) should beat never retraining (%v) under drift", count25MAE, neverMAE)
	}
	if cellFloat(t, tbl, 0, 1) != 0 {
		t.Fatal("never-retrain policy must not retrain")
	}
	if cellFloat(t, tbl, 1, 1) <= cellFloat(t, tbl, 2, 1) {
		t.Fatalf("count>25 should retrain more often than count>100:\n%s", tbl.Format())
	}
}

// TestF1PlacementTable pins Figure 1's table cell for cell: it is pure
// arithmetic (latency + bytes/bandwidth, work/speed), so any change to a
// row is a change to a formula.
func TestF1PlacementTable(t *testing.T) {
	tbl, err := RunF1(Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := [][]string{
		{"65536", "0.5", "500ms", "217.316ms", "245.3245ms", "remote"},
		{"65536", "8", "8s", "1.154816s", "245.3245ms", "webservice"},
		{"1048576", "0.5", "500ms", "708.836ms", "294.4765ms", "webservice"},
		{"1048576", "8", "8s", "1.646336s", "294.4765ms", "webservice"},
		{"16777216", "0.5", "500ms", "8.573156s", "1.0809085s", "local"},
		{"16777216", "8", "8s", "9.510656s", "1.0809085s", "webservice"},
	}
	if !reflect.DeepEqual(tbl.Rows, want) {
		t.Fatalf("F1 table moved:\n%s", tbl.Format())
	}
}

func TestRemainingExperimentsRun(t *testing.T) {
	// Smoke-run the rest; their claims are verified by package-level tests
	// (F11's winners need full-size runs, checked in EXPERIMENTS.md).
	for _, id := range []string{"F1", "F5", "F6", "F7", "F8", "F9", "F10", "S4"} {
		id := id
		t.Run(id, func(t *testing.T) { runQuick(t, id) })
	}
}

func TestT2AndF11Run(t *testing.T) {
	if testing.Short() {
		t.Skip("network-training experiments are slow")
	}
	tbl := runQuick(t, "T2")
	if !strings.Contains(tbl.Format(), "cascadedwindows") {
		t.Fatalf("T2 missing preprocessing stage:\n%s", tbl.Format())
	}
	tbl = runQuick(t, "F11")
	if len(tbl.Rows) != 4 {
		t.Fatalf("F11 should cover 4 regimes:\n%s", tbl.Format())
	}
}
