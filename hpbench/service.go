package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hotpotato/internal/rng"
	"hotpotato/internal/server"
	"hotpotato/internal/sim"
)

// jobKind is one of the daemon's engine branches, with the job spec that
// selects it.
type jobKind struct {
	layer string // the per-layer metric prefix of the branch
	k     int
	body  string // JSON job spec without the seed
}

// serviceParams sizes service-mix: hotpotatod in-process with a WAL, a
// checkpoint directory and periodic checkpoints, driven by a closed loop of
// clients that each submit a job, follow its stream to the summary, and
// submit the next. Job kinds rotate over the daemon's three engine branches.
type serviceParams struct {
	clients         int
	setupReps       int
	checkpointEvery int
	kinds           []jobKind
}

var fullService = serviceParams{
	clients: 2, setupReps: 40, checkpointEvery: 16,
	kinds: []jobKind{
		{"sim", 256, `"side":16,"k":256`},
		{"shard", 1024, `"side":32,"torus":true,"k":1024,"shards":"2x1"`},
		{"dshard", 1024, `"side":32,"torus":true,"k":1024,"shards":"2x1","dist_workers":2`},
	},
}

// daemon is one running in-process hotpotatod.
type daemon struct {
	dir  string
	srv  *server.Server
	http *http.Server
	url  string
	done chan struct{}
	once sync.Once
	err  error
}

// startDaemon builds a server over a fresh WAL and checkpoint directory,
// starts its workers and serves its handler on a loopback listener. It
// returns once /readyz answers.
func startDaemon(p serviceParams, parent string, client *http.Client) (*daemon, error) {
	if err := os.MkdirAll(parent, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(parent, "service-")
	if err != nil {
		return nil, err
	}
	srv, err := server.New(server.Config{
		WALPath:         filepath.Join(dir, "jobs.wal"),
		CheckpointDir:   filepath.Join(dir, "checkpoints"),
		CheckpointEvery: p.checkpointEvery,
	})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	srv.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Drain(context.Background()) //nolint:errcheck // already failing
		os.RemoveAll(dir)
		return nil, err
	}
	d := &daemon{dir: dir, srv: srv, http: &http.Server{Handler: srv.Handler()}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(d.done)
		d.http.Serve(ln) //nolint:errcheck // ErrServerClosed on stop
	}()
	for attempt := 0; ; attempt++ {
		resp, err := client.Get(d.url + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck // drained for reuse
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if attempt == 100 {
			d.stop()
			return nil, fmt.Errorf("daemon never became ready: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stop closes the listener and every connection, drains the server and
// removes its files. Later calls return the first call's error.
func (d *daemon) stop() error {
	d.once.Do(func() {
		d.http.Close()
		<-d.done
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		d.err = errors.Join(d.srv.Drain(ctx), os.RemoveAll(d.dir))
	})
	return d.err
}

// jobOutcome is what a client saw of one job.
type jobOutcome struct {
	submit, firstEvent, done time.Duration // from the start of the POST
	rejected                 int
	state                    string
	result                   *sim.Result
}

// runJob submits one job, follows its NDJSON stream until the summary, and
// returns what it saw. onFirst, when non-nil, runs after the first stream
// line arrives.
func runJob(client *http.Client, url, body string, onFirst func()) (*jobOutcome, error) {
	out := &jobOutcome{}
	start := time.Now()
	var id string
	for {
		resp, err := client.Post(url+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			return nil, err
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		if resp.StatusCode == http.StatusTooManyRequests {
			out.rejected++
			if out.rejected > 1000 {
				return nil, errors.New("submit: still refused after 1000 attempts")
			}
			time.Sleep(10 * time.Millisecond)
			continue
		}
		if resp.StatusCode != http.StatusAccepted {
			return nil, fmt.Errorf("submit: %s: %s", resp.Status, bytes.TrimSpace(raw))
		}
		var st struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(raw, &st); err != nil {
			return nil, fmt.Errorf("submit response: %w", err)
		}
		id = st.ID
		break
	}
	out.submit = time.Since(start)

	resp, err := client.Get(url + "/v1/jobs/" + id + "/stream")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("stream %s: %s", id, resp.Status)
	}
	br := bufio.NewReader(resp.Body)
	for {
		line, err := br.ReadBytes('\n')
		if err != nil {
			return nil, fmt.Errorf("stream %s ended before its summary: %w", id, err)
		}
		if out.firstEvent == 0 {
			out.firstEvent = time.Since(start)
			if onFirst != nil {
				onFirst()
			}
		}
		var ev struct {
			Type   string      `json:"type"`
			State  string      `json:"state"`
			Result *sim.Result `json:"result"`
		}
		if err := json.Unmarshal(line, &ev); err != nil {
			return nil, fmt.Errorf("stream %s: %w", id, err)
		}
		if ev.Type == "summary" {
			out.done = time.Since(start)
			out.state, out.result = ev.State, ev.Result
			return out, nil
		}
	}
}

// scrapeFsync reads the WAL fsync histogram's sum (seconds) and count from
// the daemon's /metrics.
func scrapeFsync(client *http.Client, url string) (sum float64, count int64, err error) {
	resp, err := client.Get(url + "/metrics")
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		switch {
		case !ok:
		case name == "hotpotatod_wal_fsync_seconds_sum":
			sum, err = strconv.ParseFloat(val, 64)
		case name == "hotpotatod_wal_fsync_seconds_count":
			count, err = strconv.ParseInt(val, 10, 64)
		}
		if err != nil {
			return 0, 0, fmt.Errorf("metrics %s: %w", name, err)
		}
	}
	return sum, count, sc.Err()
}

// completion is when, since the loop started, a job's summary arrived, and
// how many hops the job simulated.
type completion struct {
	at   time.Duration
	hops int64
}

// windowRates splits the timed section into one-second windows and returns
// the jobs and the hops completed in each, per scaled second: factor gives
// the probe's scale for a window. A section shorter than one window is a
// single window.
func windowRates(done []completion, budget time.Duration, factor func(from, to time.Duration) float64) (jobs, hops []float64) {
	width := time.Second
	n := int(budget / width)
	if n == 0 {
		n, width = 1, budget
	}
	jobs, hops = make([]float64, n), make([]float64, n)
	for _, c := range done {
		if w := int(c.at / width); w < n {
			jobs[w]++
			hops[w] += float64(c.hops)
		}
	}
	for w := range jobs {
		perSecond := float64(time.Second) / (float64(width) * factor(time.Duration(w)*width, time.Duration(w+1)*width))
		jobs[w] *= perSecond
		hops[w] *= perSecond
	}
	return jobs, hops
}

func (p serviceParams) jobBody(seed int64, i int, extra string) string {
	k := p.kinds[i%len(p.kinds)]
	// Job seeds are positive: the daemon reads 0 as "default".
	s := rng.Mix(seed, int64(i))&(1<<62-1) + 1
	return fmt.Sprintf(`{%s,"seed":%d%s}`, k.body, s, extra)
}

// measureService runs the closed loop for cfg.budget. One operation is one
// job, from POST /v1/jobs until its stream delivers the summary.
func measureService(p serviceParams, cfg config, traced bool, tr *tracer, rep *report) (*sample, error) {
	s := &sample{}
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4 * p.clients}}
	defer client.CloseIdleConnections()
	base := filepath.Join(cfg.outDir, "service")

	probes := startProbeLoop(probeInterval)
	defer probes.finish()

	// Set-up: server, WAL and checkpoint directory, worker pool, listener,
	// until /readyz answers. The last repetition serves the loop.
	var d *daemon
	var setups []timedOp
	for r := 0; r < p.setupReps; r++ {
		start := time.Now()
		dd, err := startDaemon(p, base, client)
		if err != nil {
			return nil, err
		}
		setups = append(setups, timedOp{start: start, end: time.Now()})
		if r < p.setupReps-1 {
			if err := dd.stop(); err != nil {
				return nil, err
			}
			continue
		}
		d = dd
	}
	defer d.stop() //nolint:errcheck // the success path stops it explicitly

	// Heap at the peak in-flight population: one paced job per client, all
	// running at once.
	{
		var wg sync.WaitGroup
		running := make(chan struct{}, p.clients)
		release := make(chan struct{})
		errs := make([]error, p.clients)
		for c := 0; c < p.clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				body := p.jobBody(cfg.seed, len(p.kinds)-1-c%len(p.kinds), `,"progress_every":1,"step_delay":"2ms"`)
				_, errs[c] = runJob(client, d.url, body, func() { running <- struct{}{}; <-release })
			}(c)
		}
		for c := 0; c < p.clients; c++ {
			select {
			case <-running:
			case <-time.After(30 * time.Second):
				close(release)
				wg.Wait()
				return nil, errors.New("heap probe jobs never started")
			}
		}
		s.heapMB = liveHeapMB()
		close(release)
		wg.Wait()
		if err := errors.Join(errs...); err != nil {
			return nil, fmt.Errorf("heap probe job: %w", err)
		}
	}

	fsyncSum0, fsyncCount0, err := scrapeFsync(client, d.url)
	if err != nil {
		return nil, err
	}

	// jobRun is one completed job as its client saw it.
	type jobRun struct {
		i     int
		start time.Time
		out   *jobOutcome
	}
	var (
		mu      sync.Mutex
		next    atomic.Int64
		runs    []jobRun
		wg      sync.WaitGroup
		loopErr error
	)
	start := time.Now()
	deadline := start.Add(cfg.budget)
	for c := 0; c < p.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				jobStart := time.Now()
				out, err := runJob(client, d.url, p.jobBody(cfg.seed, i, ""), nil)
				mu.Lock()
				if err != nil {
					loopErr = errors.Join(loopErr, fmt.Errorf("job %d: %w", i, err))
				} else {
					runs = append(runs, jobRun{i, jobStart, out})
				}
				mu.Unlock()
				if err != nil {
					return
				}
			}
		}()
	}
	wg.Wait()
	probes.finish()
	if loopErr != nil {
		return nil, loopErr
	}

	for _, o := range setups {
		s.setupS = append(s.setupS, o.scaled(probes).Seconds())
	}
	var (
		submitMS, firstMS []float64
		kindMS            = make([][]float64, len(p.kinds))
		rejected          int
		firstJobs         = make([]*sim.Result, len(p.kinds))
		completions       []completion
	)
	for _, r := range runs {
		kind := p.kinds[r.i%len(p.kinds)]
		out := r.out
		var c checks
		c.expect("job-done", out.state == "done")
		c.expect("job-delivered-k", out.result != nil && out.result.Delivered == kind.k && out.result.Total == kind.k)
		rep.record(c)
		end := r.start.Add(out.done)
		scaled := timedOp{start: r.start, end: end}.scaled(probes)
		s.opMS = append(s.opMS, ms(scaled))
		s.jobMS = append(s.jobMS, ms(scaled))
		s.rawOpMS = append(s.rawOpMS, ms(out.done))
		submitMS = append(submitMS, ms(out.submit))
		firstMS = append(firstMS, ms(out.firstEvent))
		kindMS[r.i%len(p.kinds)] = append(kindMS[r.i%len(p.kinds)], ms(out.done))
		rejected += out.rejected
		if out.result != nil {
			completions = append(completions, completion{at: end.Sub(start), hops: out.result.TotalHops})
			if r.i < len(firstJobs) {
				firstJobs[r.i] = out.result
			}
		}
		if traced {
			id := tr.reserve()
			tr.add(span{Trace: int64(r.i), Parent: id, Name: "POST /v1/jobs"}, r.start, r.start.Add(out.submit))
			tr.add(span{Trace: int64(r.i), Parent: id, Name: "first event"}, r.start, r.start.Add(out.firstEvent))
			tr.add(span{Trace: int64(r.i), Parent: id, Name: "summary"}, r.start.Add(out.firstEvent), end)
			tr.addAs(id, span{Trace: int64(r.i), Name: "job " + kind.layer}, r.start, end)
		}
	}
	s.jobRates, s.hopRates = windowRates(completions, cfg.budget, func(w0, w1 time.Duration) float64 {
		return probes.factor(start.Add(w0), start.Add(w1))
	})
	s.probeUS = probes.micros()

	fsyncSum1, fsyncCount1, err := scrapeFsync(client, d.url)
	if err != nil {
		return nil, err
	}
	for _, r := range firstJobs {
		if r == nil {
			return nil, errors.New("the loop did not complete one job of every kind")
		}
		s.digest.Steps += int64(r.Steps)
		s.digest.Hops += r.TotalHops
		s.digest.Deflections += r.TotalDeflections
	}
	if err := d.stop(); err != nil {
		return nil, fmt.Errorf("daemon drain: %w", err)
	}
	if traced {
		fsyncs := fsyncCount1 - fsyncCount0
		s.layer = map[string]float64{
			"server.submit_ms_p50":      median(submitMS),
			"server.first_event_ms_p50": median(firstMS),
			"server.rejected_429":       float64(rejected),
			"store.fsync_ms_mean":       1000 * (fsyncSum1 - fsyncSum0) / float64(max(fsyncs, 1)),
			"store.fsyncs_per_job":      float64(fsyncs) / float64(max(len(s.opMS), 1)),
		}
		for i, k := range p.kinds {
			s.layer[k.layer+".job_ms_p50"] = median(kindMS[i])
		}
	}
	return s, nil
}
