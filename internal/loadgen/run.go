package loadgen

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"time"
)

// Config describes one load run.
type Config struct {
	// BaseURL is the intentd address, e.g. "http://127.0.0.1:8642".
	BaseURL string
	// Paths are the request paths to draw from, relative to BaseURL.
	// Draws are zipf-skewed toward the front of the slice, modeling the
	// hot-key traffic the response cache is built for.
	Paths []string
	// Mode selects the loop discipline: "closed" keeps Concurrency
	// workers issuing back-to-back requests (throughput-bound), "open"
	// paces arrivals at Rate per second regardless of completions and
	// measures latency from the scheduled arrival, so a slow server
	// shows up as queueing delay instead of being coordinated away.
	Mode string
	// Duration is how long to drive load.
	Duration time.Duration
	// Concurrency is the worker count (closed) or the in-flight cap
	// (open). 0 means 8.
	Concurrency int
	// Rate is the open-loop arrival rate in requests/second; ignored
	// when closed. 0 means 1000.
	Rate float64
	// Seed makes the request sequence reproducible across runs.
	Seed int64
	// ZipfS is the skew exponent; 0 means 1.1 (mild hot-key skew).
	ZipfS float64
	// Client overrides the HTTP client; nil uses a keep-alive client
	// sized to Concurrency.
	Client *http.Client
	// WarmupFraction of Duration is driven but not recorded, letting
	// connection setup and cache fill settle out; 0 means 0.1,
	// negative disables warmup.
	WarmupFraction float64
}

// ModeClosed and ModeOpen are the Config.Mode values.
const (
	ModeClosed = "closed"
	ModeOpen   = "open"
)

func (cfg *Config) normalize() error {
	if cfg.BaseURL == "" {
		return errors.New("loadgen: BaseURL required")
	}
	if len(cfg.Paths) == 0 {
		return errors.New("loadgen: at least one request path required")
	}
	switch cfg.Mode {
	case ModeClosed, ModeOpen:
	case "":
		cfg.Mode = ModeClosed
	default:
		return fmt.Errorf("loadgen: unknown mode %q (want closed or open)", cfg.Mode)
	}
	if cfg.Duration <= 0 {
		return errors.New("loadgen: Duration must be positive")
	}
	if cfg.Concurrency <= 0 {
		cfg.Concurrency = 8
	}
	if cfg.Rate <= 0 {
		cfg.Rate = 1000
	}
	if cfg.ZipfS == 0 {
		cfg.ZipfS = 1.1
	}
	if cfg.WarmupFraction == 0 {
		cfg.WarmupFraction = 0.1
	}
	if cfg.Client == nil {
		tr := http.DefaultTransport.(*http.Transport).Clone()
		tr.MaxIdleConnsPerHost = cfg.Concurrency
		cfg.Client = &http.Client{Transport: tr, Timeout: 30 * time.Second}
	}
	return nil
}

// Result is the measured outcome of a Run.
type Result struct {
	Mode        string
	Elapsed     time.Duration // measured (post-warmup) window
	Requests    int64
	Errors      int64 // transport failures and non-2xx statuses
	QPS         float64
	Latency     *Hist // nanoseconds
	DroppedSend int64 // open mode: due arrivals not sent because all workers were busy
}

// pathPicker draws zipf-skewed path indexes deterministically.
type pathPicker struct {
	rng   *rand.Rand
	zipf  *rand.Zipf
	paths []string
}

func newPathPicker(seed int64, s float64, paths []string) *pathPicker {
	rng := rand.New(rand.NewSource(seed))
	var z *rand.Zipf
	if len(paths) > 1 {
		z = rand.NewZipf(rng, s, 1, uint64(len(paths)-1))
	}
	return &pathPicker{rng: rng, zipf: z, paths: paths}
}

func (p *pathPicker) next() string {
	if p.zipf == nil {
		return p.paths[0]
	}
	return p.paths[p.zipf.Uint64()]
}

// worker state shared between the two loop disciplines.
type worker struct {
	hist    *Hist
	reqs    int64
	errs    int64
	client  *http.Client
	baseURL string
}

// hit issues one GET and returns the latency; ok is false on transport
// error or non-2xx status.
func (w *worker) hit(ctx context.Context, path string) (time.Duration, bool) {
	start := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.baseURL+path, nil)
	if err != nil {
		return 0, false
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return 0, false
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return time.Since(start), resp.StatusCode >= 200 && resp.StatusCode < 300
}

// record tallies one request into the worker, counting latency only
// when recording (post-warmup).
func (w *worker) record(d time.Duration, ok, recording bool) {
	if !recording {
		return
	}
	w.reqs++
	if !ok {
		w.errs++
		return
	}
	w.hist.Record(int64(d))
}

// Run drives the configured load until Duration elapses or ctx is
// canceled, and returns the merged measurements.
func Run(ctx context.Context, cfg Config) (*Result, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	warmup := time.Duration(0)
	if cfg.WarmupFraction > 0 {
		warmup = time.Duration(cfg.WarmupFraction * float64(cfg.Duration))
	}
	ctx, cancel := context.WithTimeout(ctx, cfg.Duration)
	defer cancel()
	recordAfter := time.Now().Add(warmup)

	workers := make([]*worker, cfg.Concurrency)
	for i := range workers {
		workers[i] = &worker{hist: NewHist(), client: cfg.Client, baseURL: cfg.BaseURL}
	}

	var dropped int64
	var wg sync.WaitGroup
	switch cfg.Mode {
	case ModeClosed:
		for i, w := range workers {
			wg.Add(1)
			go func(i int, w *worker) {
				defer wg.Done()
				picker := newPathPicker(cfg.Seed+int64(i), cfg.ZipfS, cfg.Paths)
				for ctx.Err() == nil {
					d, ok := w.hit(ctx, picker.next())
					if ctx.Err() != nil {
						return // canceled mid-request; latency is not the server's
					}
					w.record(d, ok, time.Now().After(recordAfter))
				}
			}(i, w)
		}
	case ModeOpen:
		// Arrival i is due at start + i/Rate; workers pull arrivals from
		// a channel carrying the scheduled time, and latency runs from
		// that schedule, so server slowness surfaces as queueing delay
		// (no coordinated omission). On each wake the generator hands
		// every arrival now due to a worker; a full channel means every
		// worker is busy and the queue bound is exceeded, so the arrival
		// is counted as dropped rather than silently deferred. Drops are
		// counted over the same post-warmup window as Requests.
		arrivals := make(chan time.Time, cfg.Concurrency)
		for i, w := range workers {
			wg.Add(1)
			go func(i int, w *worker) {
				defer wg.Done()
				picker := newPathPicker(cfg.Seed+int64(i), cfg.ZipfS, cfg.Paths)
				for sched := range arrivals {
					_, ok := w.hit(ctx, picker.next())
					if ctx.Err() != nil {
						return
					}
					w.record(time.Since(sched), ok, sched.After(recordAfter))
				}
			}(i, w)
		}
		// The generator is in wg too: it counts drops until the run ends,
		// and workers may return before it does.
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer close(arrivals)
			start := time.Now()
			deadline, _ := ctx.Deadline()
			due := func(i int64) time.Time {
				return start.Add(time.Duration(float64(i) * float64(time.Second) / cfg.Rate))
			}
			drop := func(sched time.Time) {
				if sched.After(recordAfter) {
					dropped++ // read after wg.Wait; the generator is the only writer
				}
			}
			timer := time.NewTimer(time.Hour)
			timer.Stop()
			for i := int64(0); ; i++ {
				sched := due(i)
				if !sched.Before(deadline) {
					return
				}
				if wait := time.Until(sched); wait > 0 {
					timer.Reset(wait)
					select {
					case <-ctx.Done():
					case <-timer.C:
					}
				}
				if ctx.Err() != nil {
					// Arrivals that fell due before the run ended but were
					// never handed out are lost too.
					end := time.Now()
					if deadline.Before(end) {
						end = deadline
					}
					for ; sched.Before(end); i++ {
						drop(sched)
						sched = due(i + 1)
					}
					return
				}
				select {
				case arrivals <- sched:
				default:
					drop(sched)
				}
			}
		}()
	}
	wg.Wait()

	res := &Result{
		Mode:        cfg.Mode,
		Elapsed:     cfg.Duration - warmup,
		Latency:     NewHist(),
		DroppedSend: dropped,
	}
	for _, w := range workers {
		res.Requests += w.reqs
		res.Errors += w.errs
		res.Latency.Merge(w.hist)
	}
	if res.Elapsed > 0 {
		res.QPS = float64(res.Requests) / res.Elapsed.Seconds()
	}
	return res, nil
}
