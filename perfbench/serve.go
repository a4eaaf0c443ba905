package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"specrun/internal/asm"
	"specrun/internal/attack"
	"specrun/internal/core"
	"specrun/internal/cpu"
	"specrun/internal/prog"
	"specrun/internal/proggen"
	"specrun/internal/server"
)

// The serve workload's offered load and latency limit. README.md records
// the closed-loop capacity they were chosen from.
const (
	serveRate      = 400.0                 // requests per second, Poisson arrivals
	serveMissShare = 1.0 / 2               // share of requests that submit a fresh program
	serveLimit     = 10 * time.Millisecond // goodput counts responses within this limit
	hitPrograms    = 8                     // distinct cached programs, each sent as .sprog and as asm
	missSample     = 25                    // every missSample-th miss is re-run in-process
	digestMisses   = 200                   // misses covered by the output digest
	serveProbe     = 100                   // miss bodies in the traced codec probe
	serveSlices    = 3                     // latency percentiles are medians over this many slices
)

// request is one scheduled HTTP request.
type request struct {
	due  time.Duration // since the window started
	path string
	body []byte
	miss bool
	prog int // index into the window's miss programs (misses only)
}

// outcome is what the client saw for one request.
type outcome struct {
	latency time.Duration // completion minus due time
	lag     time.Duration // how late the generator handed the request to a connection
	handler time.Duration // time inside the service handler
	status  int
	cache   string
	body    []byte // kept for misses only
	same    bool   // hits: body equals the warm-up response
}

// genProgram is a generated program behind a program request.
type genProgram struct {
	seed int64
	bin  []byte
	text string // kept for the first serveProbe programs of a window only
}

type serve struct {
	srv     *server.Server
	hs      *http.Server
	url     string
	clients []*http.Client
	tracer  atomic.Pointer[tracer] // set while a traced window runs
	// handled holds, while a window runs, each request's time inside the
	// service handler, indexed by trace id - 1.
	handled atomic.Pointer[[]atomic.Int64]

	hits     []request         // the hit set: figure routes and cached programs
	hitProgs []genProgram      // the cached programs behind the program hits
	warm     map[string][]byte // first response per hit request (path + body)
	windows  [2][]request      // untraced and traced schedules
	misses   [2][]genProgram   // fresh programs each window submits
}

type serveWindow struct {
	out     []outcome
	elapsed time.Duration
	sched   []request
	cycles  uint64
}

func runServe(ctx context.Context, r *run) error {
	untracedWin, tracedWin := r.traceWindows()
	s, err := setup(r, func() (*serve, error) { return newServe(r, untracedWin, tracedWin) })
	if err != nil {
		return err
	}
	defer s.close()

	m0, err := s.scrape()
	if err != nil {
		return err
	}
	plain := s.window(0, nil)
	m1, err := s.scrape()
	if err != nil {
		return err
	}
	s.checkWindow(r, plain, m0, m1)

	if !r.traced {
		var hitOK, missOK int
		for i, o := range plain.out {
			if o.status != http.StatusOK || o.latency > serveLimit {
				continue
			}
			if plain.sched[i].miss {
				missOK++
			} else {
				hitOK++
			}
		}
		r.set("sim_mcycles_per_s", float64(plain.cycles)/1e6/plain.elapsed.Seconds())
		r.set("light_per_s", float64(hitOK)/plain.elapsed.Seconds())
		r.set("heavy_per_s", float64(missOK)/plain.elapsed.Seconds())
		for class, miss := range map[string]bool{"light": false, "heavy": true} {
			p50, p90 := plain.classLatency(miss)
			r.set(class+"_p50_ms", p50)
			r.set(class+"_p90_ms", p90)
			var due []time.Duration
			for i, o := range plain.out {
				if plain.sched[i].miss == miss {
					due = append(due, o.latency)
				}
			}
			fmt.Printf("%s latency from due time: p50 %.3f ms, p99 %.3f ms over %d requests\n", class, ms(quantile(due, 0.5)), ms(quantile(due, 0.99)), len(due))
		}
	}
	if err := s.checkSample(ctx, r, plain); err != nil {
		return err
	}
	r.digest = s.digest(plain)
	if !r.traced {
		return nil
	}

	tr := newTracer()
	pool0 := core.MachinePoolStats()
	s.tracer.Store(tr)
	traced := s.window(1, tr)
	s.tracer.Store(nil)
	r.setPoolHitRatio(pool0, core.MachinePoolStats())
	m2, err := s.scrape()
	if err != nil {
		return err
	}
	s.checkWindow(r, traced, m1, m2)

	all := func(w serveWindow) []time.Duration {
		ds := make([]time.Duration, len(w.out))
		for i, o := range w.out {
			ds[i] = o.latency
		}
		return ds
	}
	r.set("trace.overhead_ratio", ratio(float64(quantile(all(traced), 0.5)), float64(quantile(all(plain), 0.5))))
	lags := make([]time.Duration, len(plain.out))
	for i, o := range plain.out {
		lags[i] = o.lag
	}
	r.set("gen.lag_p99_ms", ms(quantile(lags, 0.99)))
	r.set("server.handler_p50_ms.hit", ms(quantile(tr.durations("server.Handler.hit"), 0.5)))
	r.set("server.handler_p50_ms.miss", ms(quantile(tr.durations("server.Handler.miss"), 0.5)))
	d := func(name string) float64 { return m2[name] - m1[name] }
	r.set("server.simulations", d("specrun_simulations_total"))
	r.set("rescache.hit_ratio", ratio(d("specrun_cache_hits_total"), d("specrun_cache_hits_total")+d("specrun_cache_misses_total")))
	r.set("rescache.evictions", d("specrun_cache_evictions_total"))
	r.set("rescache.singleflight_merges", d("specrun_cache_singleflight_merges_total"))
	r.set("sweep.gate_wait_ms_mean", 1000*ratio(d("specrun_gate_wait_seconds_sum"), d("specrun_gate_wait_seconds_count")))

	if err := s.probe(r, tr); err != nil {
		return err
	}
	r.writeSpans(tr)
	return nil
}

// classLatency returns the p50 and p90 of a class's time inside the
// service handler in milliseconds, each the median over serveSlices equal
// slices of the window, so one stall of the host moves one slice and not
// the result.
func (w serveWindow) classLatency(miss bool) (p50, p90 float64) {
	slices := make([][]time.Duration, serveSlices)
	length := w.sched[len(w.sched)-1].due + 1
	for i, o := range w.out {
		if req := w.sched[i]; req.miss == miss {
			k := int(int64(req.due) * serveSlices / int64(length))
			slices[k] = append(slices[k], o.handler)
		}
	}
	var p50s, p90s []float64
	for _, ds := range slices {
		p50s = append(p50s, ms(quantile(ds, 0.5)))
		p90s = append(p90s, ms(quantile(ds, 0.9)))
	}
	return median(p50s), median(p90s)
}

// newServe starts a server on a loopback listener, warms every hit request
// and generates the schedules and programs of both windows.
func newServe(r *run, windows ...time.Duration) (*serve, error) {
	s := &serve{srv: server.New(server.Options{Workers: r.workers}), warm: map[string][]byte{}}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.srv.Close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	s.url = "http://" + ln.Addr().String()
	s.hs = &http.Server{Handler: s.handler(s.srv.Handler())}
	go s.hs.Serve(ln)
	for i := 0; i < r.workers; i++ {
		s.clients = append(s.clients, &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		}})
	}

	base := 1 + r.seed*1_000_000
	opt := proggen.DefaultOptions()
	for _, name := range figureDrivers {
		s.hits = append(s.hits, request{path: "/v1/run/" + name, body: []byte("{}")})
	}
	for i := 0; i < hitPrograms; i++ {
		bin, text, err := proggen.Artifact(base+int64(i), opt)
		if err != nil {
			s.close()
			return nil, fmt.Errorf("generate hit program: %w", err)
		}
		s.hitProgs = append(s.hitProgs, genProgram{seed: base + int64(i), bin: bin, text: text})
		for _, pr := range []server.ProgramRequest{{Binary: bin}, {Asm: text}} {
			body, err := json.Marshal(pr)
			if err != nil {
				s.close()
				return nil, err
			}
			s.hits = append(s.hits, request{path: "/v1/run/program", body: body})
		}
	}
	for _, h := range s.hits {
		o := s.do(s.clients[0], 0, h, nil)
		if o.status != http.StatusOK {
			s.close()
			return nil, fmt.Errorf("warm-up %s: status %d", h.path, o.status)
		}
		s.warm[h.path+string(h.body)] = o.body
	}

	rng := rand.New(rand.NewSource(r.seed))
	next := base + hitPrograms
	for w, length := range windows {
		for due := time.Duration(0); ; {
			due += time.Duration(rng.ExpFloat64() / serveRate * float64(time.Second))
			if due >= length {
				break
			}
			if rng.Float64() >= serveMissShare {
				h := s.pickHit(rng)
				h.due = due
				s.windows[w] = append(s.windows[w], h)
				continue
			}
			mp := genProgram{seed: next}
			next++
			mp.bin, err = prog.Encode(proggen.Generate(mp.seed, opt))
			if err == nil && len(s.misses[w]) < serveProbe {
				mp.text, err = prog.Disassemble(mp.bin)
			}
			if err != nil {
				s.close()
				return nil, fmt.Errorf("generate miss program: %w", err)
			}
			body, err := json.Marshal(server.ProgramRequest{Binary: mp.bin})
			if err != nil {
				s.close()
				return nil, err
			}
			s.windows[w] = append(s.windows[w], request{due: due, path: "/v1/run/program", body: body, miss: true, prog: len(s.misses[w])})
			s.misses[w] = append(s.misses[w], mp)
		}
	}
	return s, nil
}

// pickHit draws a hit request: half go to the figure routes, a third to
// the cached programs as .sprog and a sixth to them as asm text, which the
// server parses before its cache lookup and so costs the most.
func (s *serve) pickHit(rng *rand.Rand) request {
	u := rng.Float64()
	switch figs := len(figureDrivers); {
	case u < 1.0/2:
		return s.hits[rng.Intn(figs)]
	case u < 5.0/6:
		return s.hits[figs+2*rng.Intn(hitPrograms)]
	default:
		return s.hits[figs+2*rng.Intn(hitPrograms)+1]
	}
}

func (s *serve) close() {
	s.hs.Close()
	s.srv.Close()
	for _, c := range s.clients {
		c.CloseIdleConnections()
	}
}

// handler wraps the service handler: it times every request of a window,
// inside a span while a traced window runs. The client passes the
// request's trace id and its own span id in headers.
func (s *serve) handler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		trace, _ := strconv.ParseInt(req.Header.Get("X-Bench-Trace"), 10, 64)
		parent, _ := strconv.ParseInt(req.Header.Get("X-Bench-Span"), 10, 64)
		d := s.tracer.Load().do("server.Handler."+req.Header.Get("X-Bench-Class"), trace, parent, func() { h.ServeHTTP(w, req) })
		if hd := s.handled.Load(); hd != nil && trace >= 1 && trace <= int64(len(*hd)) {
			(*hd)[trace-1].Store(int64(d))
		}
	})
}

// window replays schedule w open-loop: one generator hands each request to
// a free connection at its due time, and latency runs from the due time, so
// a stall also delays every request queued behind it.
func (s *serve) window(w int, tr *tracer) serveWindow {
	sched := s.windows[w]
	out := make([]outcome, len(sched))
	lags := make([]time.Duration, len(sched))
	handled := make([]atomic.Int64, len(sched))
	s.handled.Store(&handled)
	defer s.handled.Store(nil)
	work := make(chan int)
	var wg sync.WaitGroup
	start := time.Now()
	c0 := cpu.SimCyclesTotal()
	for _, c := range s.clients {
		wg.Add(1)
		go func(c *http.Client) {
			defer wg.Done()
			for i := range work {
				req := sched[i]
				o := s.do(c, int64(i+1), req, tr)
				o.latency = time.Since(start) - req.due
				if !req.miss {
					o.same = bytes.Equal(o.body, s.warm[req.path+string(req.body)])
					o.body = nil
				}
				out[i] = o
			}
		}(c)
	}
	for i, req := range sched {
		// nanosleep wakes within about 0.1 ms; time.Sleep can overshoot by
		// a millisecond, which would dwarf a cache hit.
		if wait := time.Until(start.Add(req.due)); wait > 0 {
			ts := syscall.NsecToTimespec(int64(wait))
			_ = syscall.Nanosleep(&ts, nil) // an early wake-up only makes the request early
		}
		work <- i
		lags[i] = time.Since(start) - req.due
	}
	close(work)
	wg.Wait()
	elapsed := time.Since(start)
	// A handler records its time just after the client may already have
	// read the whole response; wait for the last ones.
	for i, deadline := 0, time.Now().Add(time.Second); i < len(out); {
		if out[i].status != http.StatusOK || handled[i].Load() != 0 || time.Now().After(deadline) {
			out[i].lag, out[i].handler = lags[i], time.Duration(handled[i].Load())
			i++
			continue
		}
		time.Sleep(time.Millisecond)
	}
	return serveWindow{out: out, elapsed: elapsed, sched: sched, cycles: cpu.SimCyclesTotal() - c0}
}

// do sends one request on client c.
func (s *serve) do(c *http.Client, trace int64, req request, tr *tracer) outcome {
	class := "hit"
	if req.miss {
		class = "miss"
	}
	id, end := tr.begin("client."+class, trace, 0)
	defer end()
	hreq, err := http.NewRequest(http.MethodPost, s.url+req.path, bytes.NewReader(req.body))
	if err != nil {
		return outcome{}
	}
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set("X-Bench-Trace", strconv.FormatInt(trace, 10))
	hreq.Header.Set("X-Bench-Span", strconv.FormatInt(id, 10))
	hreq.Header.Set("X-Bench-Class", class)
	resp, err := c.Do(hreq)
	if err != nil {
		return outcome{}
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return outcome{}
	}
	return outcome{status: resp.StatusCode, cache: resp.Header.Get("X-Cache"), body: body}
}

// checkWindow checks every response of a window: status 200, the cache
// disposition its class predicts, and one simulation per miss.
func (s *serve) checkWindow(r *run, w serveWindow, before, after map[string]float64) {
	var misses int
	for i, o := range w.out {
		req := w.sched[i]
		want := "HIT"
		if req.miss {
			want = "MISS"
			misses++
		}
		r.check(o.status == http.StatusOK && o.cache == want && o.handler > 0, "%s request %d: status %d, X-Cache %q, handler time %v; want 200, %s and a handler time", req.path, i, o.status, o.cache, o.handler, want)
		if !req.miss {
			r.check(o.same, "hit request %d: body differs from the warm-up response", i)
		}
	}
	sims := after["specrun_simulations_total"] - before["specrun_simulations_total"]
	r.check(sims == float64(misses), "server ran %v simulations for %d misses", sims, misses)
}

// checkSample re-runs every hit request and every missSample-th miss of the
// window in this process and compares the bodies byte for byte.
func (s *serve) checkSample(ctx context.Context, r *run, w serveWindow) error {
	cfg := core.Normalize(core.DefaultConfig())
	for _, name := range figureDrivers {
		res, err := server.Run(ctx, name, cfg, attack.DefaultParams(), r.workers)
		if err != nil {
			return fmt.Errorf("in-process %s: %w", name, err)
		}
		want, err := server.Encode(res)
		if err != nil {
			return err
		}
		r.check(bytes.Equal(s.warm["/v1/run/"+name+"{}"], want), "/v1/run/%s body differs from server.Encode in-process", name)
	}
	for i, mp := range s.hitProgs {
		want, err := programBody(ctx, cfg, mp.bin)
		if err != nil {
			return err
		}
		for _, h := range s.hits[len(figureDrivers)+2*i : len(figureDrivers)+2*i+2] {
			r.check(bytes.Equal(s.warm[h.path+string(h.body)], want), "program hit %d body differs from server.Encode in-process", i)
		}
	}
	seen := 0
	for i, req := range w.sched {
		if !req.miss {
			continue
		}
		if seen++; seen%missSample != 1 {
			continue
		}
		want, err := programBody(ctx, cfg, s.misses[0][req.prog].bin)
		if err != nil {
			return err
		}
		r.check(bytes.Equal(w.out[i].body, want), "miss request %d body differs from server.Encode in-process", i)
	}
	return nil
}

// programBody is the /v1/run/program response for a .sprog binary on cfg,
// computed in this process.
func programBody(ctx context.Context, cfg core.Config, bin []byte) ([]byte, error) {
	p, err := prog.Decode(bin)
	if err != nil {
		return nil, fmt.Errorf("decode: %w", err)
	}
	st, err := core.RunProgramStatsCtx(ctx, cfg, p, core.DefaultProgramBudget, nil)
	if err != nil {
		return nil, fmt.Errorf("in-process program: %w", err)
	}
	return server.Encode(server.ProgramResponse{Sprog: prog.Hash(bin), Insts: len(p.Insts), Base: p.Base, Stats: st})
}

// digest is the sha256 over the warm-up bodies of the hit set and the first
// digestMisses miss bodies of the first window.
func (s *serve) digest(w serveWindow) string {
	h := sha256.New()
	for _, req := range s.hits {
		h.Write(s.warm[req.path+string(req.body)])
	}
	n := 0
	for i, req := range w.sched {
		if req.miss && n < digestMisses {
			h.Write(w.out[i].body)
			n++
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// scrape reads the server's /metrics into a map from series (name plus
// labels) to value.
func (s *serve) scrape() (map[string]float64, error) {
	resp, err := s.clients[0].Get(s.url + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scrape: %w", err)
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("scrape: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, errors.New("scrape: status " + resp.Status)
	}
	return out, nil
}

// probe times the request path's codec and key layers on the hit bodies and
// the first misses, regenerates those programs, and runs the machine probe
// on them.
func (s *serve) probe(r *run, tr *tracer) error {
	cfg := core.Normalize(core.DefaultConfig())
	progs := append(append([]genProgram(nil), s.hitProgs...), s.misses[1][:min(serveProbe, len(s.misses[1]))]...)
	var decoded []*asm.Program
	for i, mp := range progs {
		trace := int64(i + 1)
		var p *asm.Program
		var err error
		tr.do("prog.Decode", trace, 0, func() { p, err = prog.Decode(mp.bin) })
		if err != nil {
			return fmt.Errorf("probe decode: %w", err)
		}
		tr.do("asm.Parse", trace, 0, func() { _, err = asm.Parse("request", mp.text) })
		if err != nil {
			return fmt.Errorf("probe parse: %w", err)
		}
		tr.do("prog.Encode", trace, 0, func() { _, err = prog.Encode(p) })
		if err != nil {
			return fmt.Errorf("probe encode: %w", err)
		}
		tr.do("prog.Hash", trace, 0, func() { prog.Hash(mp.bin) })
		tr.do("core.HashKey", trace, 0, func() { _, err = core.HashKey("program", mp.bin, cfg, uint64(core.DefaultProgramBudget)) })
		if err != nil {
			return fmt.Errorf("probe hash key: %w", err)
		}
		decoded = append(decoded, p)
	}
	for i, mp := range progs {
		tr.do("proggen.Generate", int64(i+1), 0, func() { proggen.Generate(mp.seed, proggen.DefaultOptions()) })
	}
	r.set("prog.decode_us", tr.meanUS("prog.Decode"))
	r.set("prog.encode_us", tr.meanUS("prog.Encode"))
	r.set("prog.hash_us", tr.meanUS("prog.Hash"))
	r.set("asm.parse_us", tr.meanUS("asm.Parse"))
	r.set("core.hashkey_us", tr.meanUS("core.HashKey"))
	r.set("proggen.generate_us", tr.meanUS("proggen.Generate"))

	traces := make([]int64, len(decoded))
	for i := range traces {
		traces[i] = int64(i + 1)
	}
	pt, err := machineProbe(tr, []probeConfig{{"table1", cfg}}, decoded, traces)
	if err != nil {
		return err
	}
	pt.report(r, tr)
	return nil
}
