package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"bgpintent"
	"bgpintent/internal/serve"
)

// Request classes of the serving mix.
const (
	classHot      = iota // zipf GET over labeled keys: response-cache hits
	classUniform         // uniform GET over a universe larger than the cache: misses
	classAnnotate        // POST /v1/annotate of 1-32 corpus tuples: never cached
	numClasses
)

// The mix: every annotateEvery-th request is an annotate (5%), the rest
// are hot or uniform lookups at hotWeight:uniformWeight (70:25 overall).
// Annotate sizes run through shuffled rounds of 1..maxAnnotate, so every
// open-loop window carries the same annotate load.
const (
	annotateEvery = 20
	hotWeight     = 70
	uniformWeight = 25
)

const (
	zipfS          = 1.1 // hot-key skew
	maxAnnotate    = 32  // most tuples in one annotate body
	checkEvery     = 8   // every 8th answer is checked, so checking stays a small share of client CPU
	intentdStarts  = 3   // intentd start-ups per run; setup is their median
	openLoopGrace  = time.Second
	closedWindow   = 500 * time.Millisecond
	qpsQuantile    = 0.75 // of closed-loop windows; see closedLoop
	requestTimeout = 10 * time.Second
)

type request struct {
	class  int
	method string
	path   string
	body   []byte
	tuples int // annotate tuples in body
}

// expect is the oracle's verdict for one community key.
type expect struct {
	observed         bool
	category, reason string
}

type serveOut struct {
	ops
	setup time.Duration
	// Figures computed by finish.
	qps, p50us, p99us, lateP99us, hitRatio float64

	snapPath string
	sc       scale
	reqs     []request
	expects  map[string]expect

	d                *daemon
	client           *http.Client
	clients          int
	hits0, misses0   float64
	closedNext       int       // next request of the closed loop
	openNext         int       // request the next open-loop arrival sends
	rates            []float64 // closed-loop responses/s per window
	p50s, p99s, late []float64 // open-loop percentiles per window, lateness per arrival
}

// annotationJSON is the part of a served annotation the checks read.
type annotationJSON struct {
	Community string `json:"community"`
	Observed  bool   `json:"observed"`
	Category  string `json:"category"`
	Reason    string `json:"exclude_reason"`
}

// newServe draws the request sequence and starts intentd over the
// oracle's snapshot, three times; setup is the median start-up. The
// last daemon stays up for the rounds until stop.
func newServe(ctx context.Context, cfg config, in *inputs, sc scale, b *batchOut) (*serveOut, error) {
	out := &serveOut{snapPath: b.snapPath, sc: sc, clients: runtime.NumCPU()}
	out.reqs, out.expects = buildRequests(cfg.seed, sc, in, b, cfg.injectWrongAnswer)

	var setups []float64
	for i := 0; i < intentdStarts; i++ {
		out.stop()
		d, err := startIntentd(ctx, cfg.intentd, b.snapPath)
		if err != nil {
			return nil, err
		}
		out.d = d
		setups = append(setups, d.setup.Seconds())
	}
	out.setup = time.Duration(median(setups) * float64(time.Second))

	out.client = &http.Client{
		Timeout: requestTimeout,
		Transport: &http.Transport{
			MaxIdleConns: out.clients, MaxIdleConnsPerHost: out.clients, MaxConnsPerHost: out.clients,
			DisableCompression: true,
		},
	}
	var err error
	out.hits0, out.misses0, err = scrapeCache(ctx, out.client, out.d.base)
	if err != nil {
		out.stop()
		return nil, err
	}
	return out, nil
}

// round runs the closed loop, which sets serve_qps, for two thirds of
// budget and the open loop for the rest.
func (out *serveOut) round(ctx context.Context, budget time.Duration) {
	out.closedLoop(ctx, budget*2/3)
	out.openLoop(ctx, budget/3)
}

// finish reads the cache counters and reduces the windows to figures.
func (out *serveOut) finish(ctx context.Context) error {
	hits, misses, err := scrapeCache(ctx, out.client, out.d.base)
	if err != nil {
		return err
	}
	if dh, dm := hits-out.hits0, misses-out.misses0; dh+dm > 0 {
		out.hitRatio = dh / (dh + dm)
	}
	if len(out.p99s) == 0 {
		return fmt.Errorf("open loop: no window of %d arrivals was sent in full", out.sc.openWindow)
	}
	out.qps, out.p50us, out.p99us = quantile(out.rates, qpsQuantile), median(out.p50s), median(out.p99s)
	out.lateP99us = quantile(out.late, 0.99)
	return nil
}

// stop shuts down intentd and the client's connections.
func (out *serveOut) stop() {
	if out.d != nil {
		out.d.stop()
		out.d = nil
	}
	if out.client != nil {
		out.client.CloseIdleConnections()
	}
}

// buildRequests draws the fixed request sequence from the seed and
// records the oracle's verdict for every key it can ask about.
func buildRequests(seed int64, sc scale, in *inputs, b *batchOut, inject bool) ([]request, map[string]expect) {
	rng := rand.New(rand.NewSource(seed ^ 0x5e7e))
	expects := make(map[string]expect)
	note := func(k bgpintent.CommunityKey) string {
		s := k.String()
		if _, ok := expects[s]; !ok {
			l := b.ref.LookupKey(k)
			e := expect{observed: l.Observed, category: l.Category.String(), reason: string(l.Reason)}
			if inject {
				e.category = flip(e.category)
			}
			expects[s] = e
		}
		return s
	}

	var hot, universe []string
	for _, l := range b.ref.Labeled() {
		hot = append(hot, note(l.Community.Key()))
	}
	for _, l := range b.ref.LabeledLarge() {
		hot = append(hot, note(l.Key))
	}
	rng.Shuffle(len(hot), func(i, j int) { hot[i], hot[j] = hot[j], hot[i] })
	// The uniform universe: every observed classic community (labeled
	// and excluded), every labeled large one, and unobserved keys.
	observed := make(map[bgpintent.Community]bool)
	seenASN := make(map[uint16]bool)
	var asns []uint16
	for _, c := range b.lastCorpus.Communities() {
		if !seenASN[c.ASN] {
			seenASN[c.ASN] = true
			asns = append(asns, c.ASN)
		}
		observed[c] = true
		universe = append(universe, note(c.Key()))
	}
	for _, l := range b.ref.LabeledLarge() {
		universe = append(universe, note(l.Key))
	}
	for n := int(sc.unobserved * float64(len(universe))); n > 0; {
		c := bgpintent.Community{ASN: asns[rng.Intn(len(asns))], Value: uint16(rng.Intn(1 << 16))}
		if observed[c] {
			continue
		}
		observed[c] = true
		universe = append(universe, note(c.Key()))
		n--
	}
	for _, t := range in.tuples {
		for _, f := range strings.Fields(t.Communities) {
			if k, err := bgpintent.ParseCommunityKey(f); err == nil {
				note(k)
			}
		}
	}

	zipf := rand.NewZipf(rng, zipfS, 1, uint64(len(hot)-1))
	reqs := make([]request, sc.requests)
	var sizes []int
	for i := range reqs {
		switch {
		case i%annotateEvery != annotateEvery-1 && rng.Intn(hotWeight+uniformWeight) < hotWeight:
			reqs[i] = request{class: classHot, method: http.MethodGet, path: "/v1/community/" + hot[zipf.Uint64()]}
		case i%annotateEvery != annotateEvery-1:
			reqs[i] = request{class: classUniform, method: http.MethodGet, path: "/v1/community/" + universe[rng.Intn(len(universe))]}
		default:
			if len(sizes) == 0 {
				sizes = rng.Perm(maxAnnotate)
			}
			n := 1 + sizes[0]
			sizes = sizes[1:]
			body := struct {
				Tuples []annotateTuple `json:"tuples"`
			}{}
			for j := 0; j < n; j++ {
				body.Tuples = append(body.Tuples, in.tuples[rng.Intn(len(in.tuples))])
			}
			js, _ := json.Marshal(body) //nolint:errcheck // plain strings always marshal
			reqs[i] = request{class: classAnnotate, method: http.MethodPost, path: "/v1/annotate", body: js, tuples: n}
		}
	}
	return reqs, expects
}

// flip turns a label into a wrong one.
func flip(category string) string {
	if category == "action" {
		return "information"
	}
	return "action"
}

// check reports whether a 2xx response body carries the oracle's
// verdicts.
func (out *serveOut) check(r *request, body []byte) bool {
	if r.class != classAnnotate {
		var a annotationJSON
		return json.Unmarshal(body, &a) == nil && out.same(a)
	}
	var resp struct {
		Tuples []struct {
			Annotations []annotationJSON `json:"annotations"`
		} `json:"tuples"`
	}
	if json.Unmarshal(body, &resp) != nil || len(resp.Tuples) != r.tuples {
		return false
	}
	for _, t := range resp.Tuples {
		for _, a := range t.Annotations {
			if !out.same(a) {
				return false
			}
		}
	}
	return true
}

func (out *serveOut) same(a annotationJSON) bool {
	e, ok := out.expects[a.Community]
	return ok && e.observed == a.Observed && e.category == a.Category && e.reason == a.Reason
}

// do sends one request and reads the whole response into buf, which
// each client goroutine reuses so the generator allocates little.
func do(ctx context.Context, client *http.Client, base string, r *request, buf *bytes.Buffer) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, r.method, base+r.path, bytes.NewReader(r.body))
	if err != nil {
		return 0, nil, err
	}
	if r.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	return resp.StatusCode, buf.Bytes(), err
}

// closedLoop keeps one request in flight per client for d, in windows
// of closedWindow. The first window warms the connections and both
// processes' heaps after the other phases' turns, and is not timed.
// serve_qps is the upper quartile over timed windows of responses per
// second: other load on the host only ever slows a window, and on a
// small shared host it can slow half of a run's windows, so the
// quieter windows are the ones that repeat from run to run.
func (out *serveOut) closedLoop(ctx context.Context, d time.Duration) {
	for w := 0; w < max(int(d/closedWindow), 2); w++ {
		var next, done, failed atomic.Int64
		next.Store(int64(out.closedNext))
		start := time.Now()
		deadline := start.Add(closedWindow)
		var wg sync.WaitGroup
		for c := 0; c < out.clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var buf bytes.Buffer
				for time.Now().Before(deadline) {
					i := next.Add(1) - 1
					r := &out.reqs[int(i)%len(out.reqs)]
					status, body, err := do(ctx, out.client, out.d.base, r, &buf)
					done.Add(1)
					if err != nil || status/100 != 2 || (i%checkEvery == 0 && !out.check(r, body)) {
						failed.Add(1)
					}
				}
			}()
		}
		wg.Wait()
		if w > 0 {
			out.rates = append(out.rates, float64(done.Load())/time.Since(start).Seconds())
		}
		out.attempted += done.Load()
		out.failed += failed.Load()
		out.closedNext = int(next.Load())
	}
}

// openLoop sends requests on a fixed schedule for d: arrival i is due
// at start + i/rate and is timed from its due time, so a stall also
// charges the requests queued behind it. At most out.clients requests
// are in flight; arrivals still unsent a grace period after the window
// count as failed. Latency percentiles are taken per window of
// sc.openWindow arrivals; finish reports their median over windows.
func (out *serveOut) openLoop(ctx context.Context, d time.Duration) {
	sc := out.sc
	period := time.Duration(float64(time.Second) / sc.openRate)
	per := sc.openWindow
	total := max(int(d/period)/per, 1) * per
	lat := make([]float64, total)
	sent := make([]bool, total)
	late := make([]float64, total)
	var next, failed atomic.Int64
	start := time.Now().Add(10 * time.Millisecond)
	stopAt := start.Add(time.Duration(total)*period + openLoopGrace)
	var wg sync.WaitGroup
	for w := 0; w < out.clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for {
				i := int(next.Add(1) - 1)
				if i >= total || time.Now().After(stopAt) {
					return
				}
				due := start.Add(time.Duration(i) * period)
				sleepUntil(due)
				late[i] = float64(time.Since(due).Nanoseconds()) / 1e3
				r := &out.reqs[(out.openNext+i)%len(out.reqs)]
				status, body, err := do(ctx, out.client, out.d.base, r, &buf)
				lat[i] = float64(time.Since(due).Nanoseconds()) / 1e3
				sent[i] = true
				if err != nil || status/100 != 2 || (i%checkEvery == 0 && !out.check(r, body)) {
					failed.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	out.openNext += total
	out.attempted += int64(total)
	out.failed += failed.Load()
	for lo := 0; lo < total; lo += per {
		var lats []float64
		for i := lo; i < lo+per; i++ {
			if !sent[i] {
				out.failed++
				continue
			}
			lats = append(lats, lat[i])
			out.late = append(out.late, late[i])
		}
		if len(lats) < per {
			continue // too few for a p99 with ten samples beyond it
		}
		out.p50s = append(out.p50s, quantile(lats, 0.50))
		out.p99s = append(out.p99s, quantile(lats, 0.99))
	}
}

// sleepUntil blocks the calling thread in nanosleep until t. The Go
// timer behind time.Sleep can wake a millisecond late on hosts whose
// poller waits in whole milliseconds, which would dominate loopback
// latencies; nanosleep wakes within tens of microseconds.
func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil) //nolint:errcheck // an interrupted sleep just sends early
	}
}

// scrapeCache reads intentd's response-cache counters from /metrics.
func scrapeCache(ctx context.Context, client *http.Client, base string) (hits, misses float64, err error) {
	status, body, err := do(ctx, client, base, &request{method: http.MethodGet, path: "/metrics"}, &bytes.Buffer{})
	if err != nil || status != http.StatusOK {
		return 0, 0, fmt.Errorf("scrape /metrics: status %d: %v", status, err)
	}
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			continue
		}
		v, perr := strconv.ParseFloat(val, 64)
		switch {
		case perr != nil:
		case name == "intentd_response_cache_hits_total":
			hits = v
		case name == "intentd_response_cache_misses_total":
			misses = v
		}
	}
	return hits, misses, nil
}

// daemon is one running intentd process.
type daemon struct {
	cmd   *exec.Cmd
	base  string
	setup time.Duration // exec → first 200 on /healthz
	done  chan struct{}
}

// startIntentd runs intentd over the snapshot on a loopback port and
// waits until it answers /healthz.
func startIntentd(ctx context.Context, bin, snap string) (*daemon, error) {
	cmd := exec.Command(bin, "-snapshot", snap, "-addr", "127.0.0.1:0")
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	var logs bytes.Buffer
	cmd.Stderr = &logs
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start intentd: %w", err)
	}
	d := &daemon{cmd: cmd, done: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "listening on "); ok {
				select {
				case addr <- a:
				default: // only the first address is used
				}
			}
		}
		cmd.Wait() //nolint:errcheck // stop reports how the process ended
		close(d.done)
	}()
	select {
	case a := <-addr:
		d.base = "http://" + a
	case <-d.done:
		return nil, fmt.Errorf("intentd exited before listening: %s", logs.String())
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, fmt.Errorf("intentd did not listen within 30s")
	}
	probe := &http.Client{Timeout: time.Second}
	defer probe.CloseIdleConnections()
	for {
		resp, err := probe.Get(d.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck // drained for reuse only
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Since(start) > 30*time.Second || ctx.Err() != nil {
			d.stop()
			return nil, fmt.Errorf("intentd not healthy after 30s: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
	d.setup = time.Since(start)
	return d, nil
}

// stop asks intentd to drain and exit, and waits until it has.
func (d *daemon) stop() {
	d.cmd.Process.Signal(syscall.SIGTERM) //nolint:errcheck // an exited process needs no signal
	select {
	case <-d.done:
	case <-time.After(10 * time.Second):
		d.cmd.Process.Kill() //nolint:errcheck // as above
		<-d.done
	}
}

// traceServe replays the request sequence against an in-process
// serve.Server over the same snapshot, timing each ServeHTTP call, and
// times OpenSnapshotFile on its own.
func traceServe(ctx context.Context, tr *tracer, s *serveOut, sc scale, vals map[string]float64) (ops, error) {
	var o ops
	var opens []float64
	err := tr.do(0, "serve.pass", func(root int) error {
		for i := 0; i < 20; i++ {
			err := tr.do(root, "core.snapshot_open", func(int) error {
				u := time.Now()
				res, _, err := bgpintent.OpenSnapshotFile(s.snapPath)
				if err != nil {
					return err
				}
				opens = append(opens, float64(time.Since(u).Nanoseconds())/1e3)
				return res.Close()
			})
			if err != nil {
				return err
			}
		}
		var res *bgpintent.Result
		srv, err := serve.New(ctx, func(context.Context) (*bgpintent.Result, bgpintent.SnapshotInfo, string, error) {
			r, info, err := bgpintent.OpenSnapshotFile(s.snapPath)
			res = r
			return r, info, s.snapPath, err
		}, func(string, ...any) {})
		if err != nil {
			return err
		}
		defer res.Close()
		n := min(len(s.reqs), sc.requests/4)
		serveAll := func(times *[numClasses][]float64) {
			for i := 0; i < n; i++ {
				r := &s.reqs[i]
				req := httptest.NewRequest(r.method, r.path, bytes.NewReader(r.body))
				rec := httptest.NewRecorder()
				t0 := time.Now()
				srv.ServeHTTP(rec, req)
				d := float64(time.Since(t0).Nanoseconds()) / 1e3
				if times == nil {
					continue // warm-up: fills the response cache
				}
				times[r.class] = append(times[r.class], d)
				o.attempted++
				if rec.Code/100 != 2 || !s.check(r, rec.Body.Bytes()) {
					o.failed++
				}
			}
		}
		serveAll(nil)
		var times [numClasses][]float64
		if err := tr.do(root, "serve.requests", func(int) error { serveAll(&times); return nil }); err != nil {
			return err
		}
		vals["serve.community_hit_us"] = median(times[classHot])
		vals["serve.community_miss_us"] = median(times[classUniform])
		vals["serve.annotate_us"] = median(times[classAnnotate])
		return nil
	})
	vals["core.snapshot_open_us"] = median(opens)
	return o, err
}
