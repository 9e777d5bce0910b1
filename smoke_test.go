package coda_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"coda/internal/httpapi"
	"coda/internal/obs"
	"coda/internal/obs/trace"
)

// smokeUnits is the size of the 4 x 3 x 4 regression graph `coda-client
// search|serve` runs on synthetic data.
const smokeUnits = 48

// smokeWait bounds every wait on a child process: for a line of its
// output, for a metric to move, for its exit.
const smokeWait = 15 * time.Second

// output collects a child's stdout or stderr while the test reads it.
type output struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (o *output) Write(p []byte) (int, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.b.Write(p)
}

func (o *output) String() string {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.b.String()
}

// proc is one running coda-server or coda-client.
type proc struct {
	name           string
	cmd            *exec.Cmd
	stdout, stderr output
	exited         chan struct{} // closed once Wait has returned
	err            error         // Wait's result, valid after exited
}

// start launches a binary and registers a cleanup that SIGKILLs it if the
// test leaves it running and prints its output if the test failed.
func start(t *testing.T, bin string, args ...string) *proc {
	t.Helper()
	p := &proc{name: filepath.Base(bin) + " " + strings.Join(args, " "), cmd: exec.Command(bin, args...), exited: make(chan struct{})}
	p.cmd.Stdout, p.cmd.Stderr = &p.stdout, &p.stderr
	if err := p.cmd.Start(); err != nil {
		t.Fatalf("starting %s: %v", p.name, err)
	}
	go func() {
		p.err = p.cmd.Wait()
		close(p.exited)
	}()
	t.Cleanup(func() {
		p.cmd.Process.Kill()
		<-p.exited
		if t.Failed() {
			t.Logf("%s\n--- stdout ---\n%s--- stderr ---\n%s", p.name, p.stdout.String(), p.stderr.String())
		}
	})
	return p
}

// eventually polls cond until it holds or smokeWait has passed.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(smokeWait); !cond(); time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// await waits until out matches re and returns the submatches; a process
// that exits first has failed to get there.
func (p *proc) await(t *testing.T, out *output, re *regexp.Regexp) []string {
	t.Helper()
	var m []string
	eventually(t, fmt.Sprintf("%s to print %q", p.name, re), func() bool {
		if m = re.FindStringSubmatch(out.String()); m != nil {
			return true
		}
		select {
		case <-p.exited:
			if m = re.FindStringSubmatch(out.String()); m == nil {
				t.Fatalf("%s exited (%v) before printing %q", p.name, p.err, re)
			}
			return true
		default:
			return false
		}
	})
	return m
}

// signal sends sig and returns how the process exited, which it must
// within 5 s.
func (p *proc) signal(t *testing.T, sig syscall.Signal) error {
	t.Helper()
	if err := p.cmd.Process.Signal(sig); err != nil {
		t.Fatalf("signalling %s: %v", p.name, err)
	}
	select {
	case <-p.exited:
		return p.err
	case <-time.After(5 * time.Second):
		t.Fatalf("%s still running 5s after signal %d", p.name, sig)
		return nil
	}
}

// stop ends a process the way an operator does — SIGTERM — and requires a
// clean exit: both binaries drain and return 0 on an interrupt.
func (p *proc) stop(t *testing.T) {
	t.Helper()
	if err := p.signal(t, syscall.SIGTERM); err != nil {
		t.Fatalf("%s after SIGTERM: %v, want exit 0", p.name, err)
	}
}

// smokeBins holds the two binaries under test, built from this checkout.
type smokeBins struct{ server, client string }

var (
	serverListening = regexp.MustCompile(`msg="coda-server listening" addr=(\S+)`)
	serveListening  = regexp.MustCompile(`(?m)^serving .* on (\S+)$`)
	searchFinished  = regexp.MustCompile(`msg="cooperative search finished" request_id=(\S+) computed=(\d+) cache_hits=(\d+) skipped=0`)
	unitsLine       = regexp.MustCompile(`(?m)^units: (\d+) computed, (\d+) from DARR, (\d+) skipped`)
	bestFitted      = regexp.MustCompile(`msg="best pipeline fitted" request_id=\S+ spec="input -> [^"]+" duration=\S+`)
)

// startServer boots coda-server on a port the kernel picks and returns its
// base URL, read from the listening log line.
func (b smokeBins) startServer(t *testing.T, args ...string) (*proc, string) {
	t.Helper()
	p := start(t, b.server, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	return p, "http://" + p.await(t, &p.stderr, serverListening)[1]
}

// startServe boots `coda-client serve`, which searches and then listens.
func (b smokeBins) startServe(t *testing.T, args ...string) (*proc, string) {
	t.Helper()
	p := start(t, b.client, append([]string{"serve", "-addr", "127.0.0.1:0"}, args...)...)
	return p, "http://" + p.await(t, &p.stdout, serveListening)[1]
}

// run executes one coda-client command to completion and returns its stdout.
func (b smokeBins) run(t *testing.T, args ...string) string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(b.client, args...)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("coda-client %s: %v\n%s%s", strings.Join(args, " "), err, stdout.String(), stderr.String())
	}
	return stdout.String()
}

func httpGet(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d, %v", url, resp.StatusCode, err)
	}
	return string(body)
}

// scrape fetches /metrics and holds it to the exposition format: every
// non-comment line is "series value".
func scrape(t *testing.T, base string) string {
	t.Helper()
	body := httpGet(t, base+"/metrics")
	for _, line := range strings.Split(strings.TrimSpace(body), "\n") {
		if !strings.HasPrefix(line, "#") && len(strings.Fields(line)) != 2 {
			t.Fatalf("%s/metrics: malformed line %q", base, line)
		}
	}
	return body
}

// metric sums the samples of a series: series is a bare name, or a name
// with a label prefix such as `coda_store_replies_total{kind="full"`.
func metric(scrape, series string) float64 {
	sum := 0.0
	for _, line := range strings.Split(scrape, "\n") {
		rest, ok := strings.CutPrefix(line, series)
		if !ok || rest == "" || !strings.ContainsAny(rest[:1], " {,}") {
			continue
		}
		v, _ := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64)
		sum += v
	}
	return sum
}

func requireSeries(t *testing.T, scrape string, typeLines ...string) {
	t.Helper()
	for _, l := range typeLines {
		if !strings.Contains(scrape, "# TYPE "+l+"\n") {
			t.Errorf("scrape lacks %q", "# TYPE "+l)
		}
	}
}

// bulkLookup is the waterfall line of a search's one batched DARR lookup.
func bulkLookup(hits int) string {
	return fmt.Sprintf("search.bulk_lookup [darr_wait] keys=%d hits=%d", smokeUnits, hits)
}

// searchWaterfall returns the listing row and the rendered span tree of
// the newest `search` trace in a serve client's ring.
func searchWaterfall(t *testing.T, base string) (trace.Summary, string) {
	t.Helper()
	var rows []trace.Summary
	if err := json.Unmarshal([]byte(httpGet(t, base+"/debug/traces")), &rows); err != nil {
		t.Fatalf("%s/debug/traces: %v", base, err)
	}
	for _, r := range rows {
		if r.Root == "search" {
			return r, httpGet(t, base+"/debug/traces?id="+r.TraceID)
		}
	}
	t.Fatalf("%s: no search trace among %d fragments", base, len(rows))
	return trace.Summary{}, ""
}

// TestSmoke drives the shipped binaries as child processes, the way an
// operator meets them: real listeners, real signals, real files. Each
// subtest is one guarantee of the paper read from outside the process —
// logs, /metrics, /healthz, /debug/traces and the CLI's own output.
func TestSmoke(t *testing.T) {
	dir := t.TempDir()
	build := exec.Command("go", "build", "-o", dir+string(filepath.Separator), "./cmd/coda-server", "./cmd/coda-client", "./cmd/coda-bench")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	bins := smokeBins{server: filepath.Join(dir, "coda-server"), client: filepath.Join(dir, "coda-client")}

	// Every flag the README and DESIGN show on a command line exists.
	t.Run("DocFlags", func(t *testing.T) {
		checkDocFlags(t, map[string]string{
			"coda-server": bins.server, "coda-client": bins.client, "coda-bench": filepath.Join(dir, "coda-bench"),
		})
	})

	// A search leaves a trace that says where its results came from: the
	// client that finds the DARR empty fits every fold, the client that
	// joins afterwards fits none — the reuse claim, read from the trace.
	t.Run("Observability", func(t *testing.T) {
		server, url := bins.startServer(t)
		first, firstURL := bins.startServe(t, "-server", url, "-client", "smoke-first")
		m := first.await(t, &first.stderr, searchFinished)
		if m[1] == `""` || m[2] != strconv.Itoa(smokeUnits) || m[3] != "0" {
			t.Errorf("first client's search: request_id=%s computed=%s cache_hits=%s; want an id, %d, 0", m[1], m[2], m[3], smokeUnits)
		}
		row, tree := searchWaterfall(t, firstURL)
		if row.RootChildren < 3 {
			t.Errorf("first client's search root has %d children, want >= 3", row.RootChildren)
		}
		for _, want := range []string{"search.fold_fit", "[darr_wait]", bulkLookup(0)} {
			if !strings.Contains(tree, want) {
				t.Errorf("first client's search trace lacks %q", want)
			}
		}

		second, secondURL := bins.startServe(t, "-server", url, "-client", "smoke-second")
		m = second.await(t, &second.stderr, searchFinished)
		if m[2] != "0" || m[3] != strconv.Itoa(smokeUnits) {
			t.Errorf("second client's search: computed=%s cache_hits=%s; want 0, %d", m[2], m[3], smokeUnits)
		}
		_, tree = searchWaterfall(t, secondURL)
		if !strings.Contains(tree, bulkLookup(smokeUnits)) {
			t.Errorf("second client's search trace lacks the all-hit bulk lookup:\n%s", tree)
		}
		if n := strings.Count(tree, "search.fold_fit"); n != 0 {
			t.Errorf("second client fitted %d folds, want 0: every unit was in the DARR", n)
		}
		if n := strings.Count(tree, "outcome=cache_hit"); n != smokeUnits {
			t.Errorf("second client's trace shows %d cache-hit units, want %d", n, smokeUnits)
		}

		sc := scrape(t, url)
		requireSeries(t, sc, "coda_darr_lookups_total counter", "coda_darr_batch_lookups_total counter", "coda_search_unit_seconds histogram")
		for _, s := range []string{"coda_http_requests_total", "coda_darr_lookups_total", "coda_darr_batch_lookups_total"} {
			if metric(sc, s) <= 0 {
				t.Errorf("server %s = %v after two searches, want > 0", s, metric(sc, s))
			}
		}
		// Both clients spoke only the batched protocol: nothing reached the
		// record routes, and nothing but releases the claim route.
		for _, perKey := range []string{`route="darr-records"`, `route="darr-claims",method="POST"`} {
			if strings.Contains(sc, perKey) {
				t.Errorf("server counted a %s request from a cooperative search", perKey)
			}
		}
		// Every DARR request left a fragment in the server's ring,
		// parented on the client's span.
		var frags []trace.Summary
		if err := json.Unmarshal([]byte(httpGet(t, url+"/debug/traces")), &frags); err != nil {
			t.Fatal(err)
		}
		remote := 0
		for _, f := range frags {
			if f.Remote && strings.HasPrefix(f.Root, "server.") {
				remote++
			}
		}
		if remote == 0 {
			t.Errorf("no remote-parented server.* fragment among %d: traceparent propagation broken", len(frags))
		}

		var health struct {
			UptimeSeconds float64           `json:"uptime_seconds"`
			Build         map[string]string `json:"build"`
			Components    struct {
				Store map[string]any `json:"store"`
			} `json:"components"`
		}
		if err := json.Unmarshal([]byte(httpGet(t, url+"/healthz")), &health); err != nil {
			t.Fatal(err)
		}
		if health.UptimeSeconds <= 0 || health.Build["go_version"] == "" {
			t.Errorf("healthz: uptime %v, go_version %q", health.UptimeSeconds, health.Build["go_version"])
		}
		if health.Components.Store["backend_healthy"] != true || health.Components.Store["full_replies"] == nil {
			t.Errorf("healthz store block %v lacks backend_healthy / full_replies", health.Components.Store)
		}
		snake := regexp.MustCompile(`^[a-z][a-z0-9_]*$`)
		for k := range health.Components.Store {
			if !snake.MatchString(k) {
				t.Errorf("healthz store key %q is not snake_case like the rest of the document", k)
			}
		}

		second.stop(t)
		first.stop(t)
		server.stop(t)
	})

	// The prefix-cache counters and the critical-path profile live in the
	// searching process; an all-hit search fits no prefix, so the client
	// scraped is one that computed.
	t.Run("PrefixCacheMetrics", func(t *testing.T) {
		serve, url := bins.startServe(t)
		sc := scrape(t, url)
		requireSeries(t, sc, "coda_search_prefix_cache_hits_total counter", "coda_search_critical_path_seconds histogram")
		if hits := metric(sc, "coda_search_prefix_cache_hits_total"); hits <= 0 {
			t.Errorf("coda_search_prefix_cache_hits_total = %v after a computed search, want > 0", hits)
		}
		if sum := metric(sc, `coda_search_critical_path_seconds_sum{component="compute"`); sum <= 0 {
			t.Errorf("critical path compute seconds = %v after a computed search, want > 0", sum)
		}
		t.Run("ServeStopsOnSIGTERM", serve.stop)
	})

	// serve's /score runs on the server's chain: it scores one prediction
	// per row, answers a malformed body with the JSON error every route
	// gives, under the echoed request id, and is counted and traced like
	// any coda-server route — adopting the caller's span as its parent.
	t.Run("Score", func(t *testing.T) {
		serve, url := bins.startServe(t)
		const traceID = "0af7651916cd43dd8448eb211c80319c"
		post := func(body string, header http.Header) (*http.Response, []byte) {
			t.Helper()
			req, err := http.NewRequest(http.MethodPost, url+"/score", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			req.Header = header
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatalf("POST /score: %v", err)
			}
			defer resp.Body.Close()
			raw, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Fatal(err)
			}
			return resp, raw
		}

		rows := `{"rows": [[0.1, 0.2, 0.3, 0.4, 0.5, 0.6], [1, 1, 1, 1, 1, 1], [-2, 0, 2, 0, -2, 0]]}`
		resp, raw := post(rows, http.Header{trace.Header: {traceID + "-b7ad6b7169203331-01"}})
		var scored struct {
			Predictions []float64 `json:"predictions"`
		}
		if err := json.Unmarshal(raw, &scored); err != nil || resp.StatusCode != http.StatusOK || len(scored.Predictions) != 3 {
			t.Fatalf("scoring 3 rows: status %d, %s (%v); want 200 and 3 predictions", resp.StatusCode, raw, err)
		}

		resp, raw = post("{", http.Header{})
		var failed struct {
			Status    int    `json:"status"`
			RequestID string `json:"request_id"`
		}
		if err := json.Unmarshal(raw, &failed); err != nil || resp.StatusCode != http.StatusBadRequest || failed.Status != http.StatusBadRequest {
			t.Errorf("malformed body: status %d, %s (%v); want a JSON 400", resp.StatusCode, raw, err)
		}
		if echoed := resp.Header.Get(obs.RequestIDHeader); echoed == "" || failed.RequestID != echoed {
			t.Errorf("malformed body: request_id %q, echoed %s %q; want the same id", failed.RequestID, obs.RequestIDHeader, echoed)
		}

		if n := metric(scrape(t, url), `coda_http_requests_total{route="score",method="POST",code="200"`); n != 1 {
			t.Errorf(`coda_http_requests_total{route="score",method="POST",code="200"} = %v, want 1`, n)
		}
		var frags []trace.Summary
		if err := json.Unmarshal([]byte(httpGet(t, url+"/debug/traces")), &frags); err != nil {
			t.Fatal(err)
		}
		adopted, fitted := false, false
		for _, f := range frags {
			adopted = adopted || (f.Root == "server.score" && f.Remote && f.TraceID == traceID)
			fitted = fitted || f.Root == "search.refit"
		}
		if !adopted {
			t.Errorf("no remote-parented server.score fragment of trace %s among %d", traceID, len(frags))
		}
		if !fitted {
			t.Errorf("no search.refit trace among %d: serve's fit of the winner went untraced", len(frags))
		}
		serve.stop(t)
		if n := strings.Count(serve.stderr.String(), `msg="best pipeline fitted"`); n != 1 || !bestFitted.MatchString(serve.stderr.String()) {
			t.Errorf("serve logged %d best-pipeline-fitted lines, want one with the spec and duration:\n%s", n, serve.stderr.String())
		}
	})

	// An object put through a log-backed server survives a restart on the
	// same directory: same bytes, same version.
	t.Run("LogBackendRestart", func(t *testing.T) {
		work := t.TempDir()
		dsn := "log:" + filepath.Join(work, "store")
		blob, copyA, copyB := filepath.Join(work, "blob"), filepath.Join(work, "copy-a"), filepath.Join(work, "copy-b")
		data := make([]byte, 64<<10)
		rand.New(rand.NewSource(1)).Read(data)
		if err := os.WriteFile(blob, data, 0o644); err != nil {
			t.Fatal(err)
		}
		server, url := bins.startServer(t, "-store-backend", dsn)
		if out := bins.run(t, "put", "-server", url, "-key", "smoke/blob", "-file", blob); !strings.Contains(out, "version 1 ") {
			t.Fatalf("put printed %q, want version 1", out)
		}
		bins.run(t, "pull", "-server", url, "-key", "smoke/blob", "-out", copyA)
		if got, _ := os.ReadFile(copyA); !bytes.Equal(got, data) {
			t.Fatal("pull before the restart returned different bytes")
		}
		server.stop(t)

		server, url = bins.startServer(t, "-store-backend", dsn)
		if !strings.Contains(server.stderr.String(), `msg="object store recovered" backend=log objects=1`) {
			t.Errorf("restarted server did not report the recovered object")
		}
		out := bins.run(t, "pull", "-server", url, "-key", "smoke/blob", "-out", copyB)
		if got, _ := os.ReadFile(copyB); !bytes.Equal(got, data) || !strings.Contains(out, "version 1 ") {
			t.Fatalf("pull after the restart: %q, bytes equal %v; want version 1 and the same bytes", out, bytes.Equal(got, data))
		}
		sc := scrape(t, url)
		requireSeries(t, sc, "coda_store_get_seconds histogram")
		if full := metric(sc, `coda_store_replies_total{kind="full"`); full <= 0 {
			t.Errorf(`coda_store_replies_total{kind="full"} = %v after serving the pull, want > 0`, full)
		}
		server.stop(t)
	})

	// A published result survives a crash: the server dies by SIGKILL (no
	// graceful flush), and after a restart a different client's search of
	// the same data is answered from the replayed records alone.
	t.Run("DARRSurvivesKill9", func(t *testing.T) {
		dsn := "log:" + t.TempDir()
		server, url := bins.startServer(t, "-darr-backend", dsn)
		if sc := scrape(t, url); !strings.Contains(sc, `coda_persist_puts_total{backend="log"}`) {
			t.Errorf("persist tier not in the first scrape")
		}
		if !strings.Contains(httpGet(t, url+"/healthz"), `"backend":"log"`) {
			t.Errorf("healthz does not name the DARR backend")
		}
		search := func(client string) (computed, hits, skipped string) {
			m := unitsLine.FindStringSubmatch(bins.run(t, "search", "-synthetic", "regression", "-server", url, "-client", client))
			if m == nil {
				t.Fatalf("search as %s printed no units line", client)
			}
			return m[1], m[2], m[3]
		}
		if c, h, s := search("smoke-a"); c != strconv.Itoa(smokeUnits) || h != "0" || s != "0" {
			t.Fatalf("first search: %s computed, %s from DARR, %s skipped; want %d, 0, 0", c, h, s, smokeUnits)
		}
		if puts := metric(scrape(t, url), "coda_darr_puts_total"); puts != smokeUnits {
			t.Errorf("coda_darr_puts_total = %v after the first search, want %d", puts, smokeUnits)
		}
		if err := server.signal(t, syscall.SIGKILL); err == nil {
			t.Fatal("server exited 0 on SIGKILL")
		}

		server, url = bins.startServer(t, "-darr-backend", dsn)
		want := fmt.Sprintf(`msg="durable DARR recovered" backend=log records=%d`, smokeUnits)
		if !strings.Contains(server.stderr.String(), want) {
			t.Errorf("restarted server did not log %q", want)
		}
		if c, h, s := search("smoke-b"); c != "0" || h != strconv.Itoa(smokeUnits) || s != "0" {
			t.Errorf("second search: %s computed, %s from DARR, %s skipped; want 0, %d, 0", c, h, s, smokeUnits)
		}
		sc := scrape(t, url)
		if hits := metric(sc, "coda_darr_hits_total"); hits != smokeUnits {
			t.Errorf("coda_darr_hits_total = %v after the restart, want %d", hits, smokeUnits)
		}
		server.stop(t)
	})

	// A lease subscriber gets the coalesced latest version: a burst of
	// publishes inside one -notify-coalesce window reaches the stream as
	// one frame that counts them.
	t.Run("SSECoalescing", func(t *testing.T) {
		const window = 400 * time.Millisecond
		server, url := bins.startServer(t, "-notify-coalesce", window.String(), "-fanout-workers", "4")
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		c := httpapi.NewClient(url, "smoke-sse")
		put := func(v int) {
			t.Helper()
			if _, err := c.PutObject(ctx, "smoke/push", []byte(fmt.Sprintf("v%d-data", v))); err != nil {
				t.Fatalf("put %d: %v", v, err)
			}
		}
		leasesActive := func() float64 { return metric(scrape(t, url), "coda_replication_leases_active") }
		put(1)
		lease, err := c.Subscribe(ctx, "smoke/push", "notify", time.Minute, 0)
		if err != nil {
			t.Fatal(err)
		}
		frames := make(chan httpapi.Notification)
		streamed := make(chan error, 1)
		go func() {
			streamed <- c.StreamLease(ctx, lease.LeaseID, func(n httpapi.Notification) error {
				select {
				case frames <- n:
				case <-ctx.Done():
				}
				return nil
			})
		}()
		if n := leasesActive(); n != 1 {
			t.Errorf("coda_replication_leases_active = %v with one lease held, want 1", n)
		}

		// The first put of a burst is delivered at once and opens the
		// window; the rest land inside it and must arrive as one frame. A
		// burst that itself took longer than the window (a stalled host)
		// proves nothing either way and is repeated.
		version, merged := 1, false
		for deadline := time.Now().Add(smokeWait); !merged; {
			if time.Now().After(deadline) {
				t.Fatal("no burst of four puts finished inside the coalescing window")
			}
			began := time.Now()
			for i := 0; i < 4; i++ {
				version++
				put(version)
			}
			inside := time.Since(began) < window
			for last := uint64(0); last < uint64(version); {
				select {
				case n := <-frames:
					last, merged = n.Version, merged || n.Coalesced >= 2
				case err := <-streamed:
					t.Fatalf("lease stream ended early: %v", err)
				case <-time.After(smokeWait):
					t.Fatalf("stream stopped at version %d, latest is %d", last, version)
				}
			}
			if inside && !merged {
				t.Fatalf("four puts in under %s reached the subscriber with no coalesced frame", window)
			}
		}
		sc := scrape(t, url)
		if pushes := metric(sc, "coda_replication_pushes_total"); pushes <= 0 {
			t.Errorf("coda_replication_pushes_total = %v, want > 0", pushes)
		}
		if errs := metric(sc, "coda_replication_push_errors_total"); errs != 0 {
			t.Errorf("coda_replication_push_errors_total = %v, want 0", errs)
		}

		// The CLI subscriber: two frames end to end, exit 0, lease cancelled.
		sub := start(t, bins.client, "subscribe", "-server", url, "-key", "smoke/push", "-client", "smoke-cli", "-count", "2")
		sub.await(t, &sub.stdout, regexp.MustCompile(`(?m)^lease \S+ on "smoke/push"`))
		put(version + 1)
		sub.await(t, &sub.stdout, regexp.MustCompile(`(?m)^notify "smoke/push"`))
		put(version + 2)
		select {
		case <-sub.exited:
			if sub.err != nil {
				t.Errorf("subscribe -count 2: %v, want exit 0", sub.err)
			}
		case <-time.After(smokeWait):
			t.Fatal("subscribe -count 2 still running after two publishes")
		}
		if err := c.CancelLease(ctx, lease.LeaseID); err != nil {
			t.Errorf("cancelling the stream's lease: %v", err)
		}
		eventually(t, "coda_replication_leases_active to fall back to 0", func() bool { return leasesActive() == 0 })
		server.stop(t)
	})
}
