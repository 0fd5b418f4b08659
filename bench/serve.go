package main

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"regiongrow"
	"regiongrow/client"
	"regiongrow/internal/gateway"
	"regiongrow/internal/server"
)

// serveConns is the load generator's connection budget: one process, at
// most this many requests in flight.
const serveConns = 2

// serveRate is phase A's open-loop arrival rate, per second: about a third
// of what the fleet sustains in phase B on the reference host, so queues
// stay short and latency reflects service, not overload.
const serveRate = 100

// traceParam carries a traced request's span-ID base through the gateway
// to the backend. The gateway forwards the query string verbatim and the
// server ignores parameters it does not know, so it reaches neither cache
// keys nor results.
const traceParam = "bench_trace"

// fleet is one serving stack on loopback: backends behind a gateway, or
// backends alone when requests go straight to the owner.
type fleet struct {
	backends []*server.Server
	addrs    []string
	gw       *gateway.Gateway
	gwURL    string
	servers  []*http.Server // backends first, then the gateway
	serving  sync.WaitGroup
}

// startFleet starts one backend per address in addrs ("host:0" picks a
// port) and, when withGateway, a gateway over them. With a tracer, every
// tier records a span around each traced request it handles.
func startFleet(addrs []string, withGateway bool, tr *tracer) (*fleet, error) {
	f := &fleet{}
	for i, addr := range addrs {
		s := server.New(server.Options{Instance: fmt.Sprintf("b%d", i+1)})
		f.backends = append(f.backends, s)
		a, err := f.listen(addr, traceHandler(tr, "server.handle", 2, s))
		if err != nil {
			f.close()
			return nil, err
		}
		f.addrs = append(f.addrs, a)
	}
	if !withGateway {
		return f, nil
	}
	gw, err := gateway.New(gateway.Options{Backends: f.addrs})
	if err != nil {
		f.close()
		return nil, err
	}
	f.gw = gw
	a, err := f.listen("127.0.0.1:0", traceHandler(tr, "gateway.handle", 1, gw))
	if err != nil {
		f.close()
		return nil, err
	}
	f.gwURL = "http://" + a
	return f, nil
}

func (f *fleet) listen(addr string, h http.Handler) (string, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	hs := &http.Server{Handler: h}
	f.servers = append(f.servers, hs)
	f.serving.Add(1)
	go func() {
		defer f.serving.Done()
		_ = hs.Serve(l) // returns http.ErrServerClosed after Shutdown
	}()
	return l.Addr().String(), nil
}

// close shuts the tiers down front to back and waits for every serving
// goroutine and backend worker to exit.
func (f *fleet) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i := len(f.servers) - 1; i >= 0; i-- {
		_ = f.servers[i].Shutdown(ctx)
		if i == len(f.backends) && f.gw != nil {
			f.gw.Close()
		}
	}
	for _, s := range f.backends {
		s.Close()
	}
	f.serving.Wait()
}

// traceHandler wraps h to record a span named name for every request that
// carries a trace base; slot is the span's offset from the base (the
// client's root span is slot 0) and its parent is the slot before it.
// Without a tracer it returns h unchanged.
func traceHandler(tr *tracer, name string, slot uint64, h http.Handler) http.Handler {
	if tr == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !strings.Contains(r.URL.RawQuery, traceParam+"=") {
			h.ServeHTTP(w, r)
			return
		}
		base, err := strconv.ParseUint(r.URL.Query().Get(traceParam), 10, 64)
		start := tr.now()
		h.ServeHTTP(w, r)
		if err == nil {
			tr.record(span{Trace: base, ID: base + slot, Parent: base + slot - 1, Name: name, Start: start, End: tr.now()})
		}
	})
}

// reply is the part of a /v1/segment response the benchmark checks and
// times. Decoding no more keeps the load generator's own CPU and heap,
// which share the process with the fleet, small.
type reply struct {
	Cache  string `json:"cache"`
	Result struct {
		FinalRegions    int     `json:"final_regions"`
		MergeIterations int     `json:"merge_iterations"`
		SplitWallMs     float64 `json:"split_wall_ms"`
		MergeWallMs     float64 `json:"merge_wall_ms"`
	} `json:"result"`
}

// serveImage is one paper image as a request body.
type serveImage struct {
	im  *regiongrow.Image
	pgm []byte
	key string // content hash, for routing keys
}

// serveRun is serve-fleet's state after set-up.
type serveRun struct {
	fleet  *fleet
	hc     *http.Client
	images []serveImage
	reqs   []request
	due    []time.Duration
	refs   map[request]reference
}

// reference is what the sequential engine reports for a request's image
// and seed.
type reference struct{ regions, rounds int }

func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: serveConns,
		MaxIdleConnsPerHost: serveConns, DisableCompression: true}}
}

// post submits rq to base and returns the decoded reply and when its body
// had been read in full.
func (r *serveRun) post(ctx context.Context, base string, rq request, traceBase uint64) (reply, time.Time, error) {
	u := fmt.Sprintf("%s/v1/segment?tie=random&seed=%d", base, rq.seed)
	if traceBase != 0 {
		u += fmt.Sprintf("&%s=%d", traceParam, traceBase)
	}
	var rp reply
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, u, bytes.NewReader(r.images[rq.image].pgm))
	if err != nil {
		return rp, time.Now(), err
	}
	req.Header.Set("Content-Type", "image/x-portable-graymap")
	resp, err := r.hc.Do(req)
	if err != nil {
		return rp, time.Now(), err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	done := time.Now()
	if err != nil {
		return rp, done, err
	}
	if resp.StatusCode != http.StatusOK {
		return rp, done, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	return rp, done, json.Unmarshal(body, &rp)
}

// served is one completed submission.
type served struct {
	req     request
	reply   reply
	err     error
	latency time.Duration
	trace   uint64
}

// serveLog collects submissions from concurrent senders.
type serveLog struct {
	mu  sync.Mutex
	all []served
}

func (l *serveLog) add(s served) {
	l.mu.Lock()
	l.all = append(l.all, s)
	l.mu.Unlock()
}

// submit sends request i, timing it from from, and logs it. traced
// requests record the client's root span.
func (r *serveRun) submit(ctx context.Context, base string, i int, from time.Time, traced bool, tr *tracer, log *serveLog) sample {
	rq := r.reqs[i%len(r.reqs)]
	var tb uint64
	if traced {
		tb = tr.reserve(3)
	}
	rp, done, err := r.post(ctx, base, rq, tb)
	if traced {
		tr.record(span{Trace: tb, ID: tb, Name: "loadgen.request", Start: tr.at(from), End: tr.at(done)})
	}
	s := served{req: rq, reply: rp, err: err, latency: done.Sub(from), trace: tb}
	if log != nil {
		log.add(s)
	}
	im := r.images[rq.image].im
	return sample{latency: s.latency, pixels: im.W * im.H, failed: err != nil}
}

func newServeRun(ctx context.Context, c config, tr *tracer) (*serveRun, error) {
	f, err := startFleet([]string{"127.0.0.1:0", "127.0.0.1:0"}, true, tr)
	if err != nil {
		return nil, err
	}
	r := &serveRun{fleet: f, hc: newClient()}
	for _, id := range regiongrow.AllPaperImageIDs() {
		im := regiongrow.GeneratePaperImage(id)
		var b bytes.Buffer
		if err := regiongrow.WritePGM(&b, im); err != nil {
			r.close()
			return nil, err
		}
		r.images = append(r.images, serveImage{im: im, pgm: b.Bytes(), key: regiongrow.HashImage(im)})
	}
	half := c.measure.Seconds() / 2
	r.due = arrivals(c.seed, serveRate, int(2*serveRate*half)+100)
	r.reqs = requestStream(c.seed, len(r.images), int(2*serveRate*half+4000*half)+1000)
	// Warm-up: every image twice (a miss, then a hit) on both connections,
	// under seed 0, which the measured key space never uses.
	warm := make([]request, 0, 2*len(r.images))
	for k := 0; k < 2; k++ {
		for i := range r.images {
			warm = append(warm, request{image: i})
		}
	}
	if err := replay(len(warm), serveConns, func(i int) error {
		_, _, err := r.post(ctx, f.gwURL, warm[i], 0)
		return err
	}); err != nil {
		r.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return r, nil
}

func (r *serveRun) close() {
	r.hc.CloseIdleConnections()
	r.fleet.close()
}

// replay runs ops 0..n-1 in order on conns callers, each starting its
// next op when the previous one returns, and returns the first error.
func replay(n, conns int, op func(i int) error) error {
	var mu sync.Mutex
	var next int
	var first error
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= n {
					return
				}
				if err := op(i); err != nil {
					mu.Lock()
					first = cmp.Or(first, err)
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return first
}

// fleetCounters sums the backends' cache and admission counters.
func (f *fleet) counters() (hits, misses, rejected int64) {
	for _, s := range f.backends {
		st := s.Stats()
		hits += st.Cache.Hits
		misses += st.Cache.Misses
		rejected += st.Requests.Rejected
	}
	return hits, misses, rejected
}

// serveProbeRequests is how many requests, after the measured phase, are
// each followed by a heap checkpoint. Outside the backends the heap cannot
// be read mid-request, so the checkpoints see mostly the result caches the
// run filled.
const serveProbeRequests = 8

// runServeFleet drives the fleet through its gateway on two keep-alive
// connections: phase A is an open loop of Poisson arrivals for half the
// measured time, phase B a closed loop on both connections for the other
// half. Latency comes from phase A, CPU cost and throughput from phase B.
func runServeFleet(ctx context.Context, c config, tr *tracer) (*outcome, error) {
	run, setup, err := setUp(c, func() (*serveRun, error) { return newServeRun(ctx, c, tr) },
		func(r *serveRun) { r.close() })
	if err != nil {
		return nil, err
	}
	closed := false
	defer func() {
		if !closed {
			run.close()
		}
	}()

	var log serveLog
	var queueMax int
	stopQueue := func() {}
	if c.traced {
		stopQueue = poll(5*time.Millisecond, func() {
			for _, s := range run.fleet.backends {
				queueMax = max(queueMax, s.Stats().Queue.Depth)
			}
		})
	}
	hits0, misses0, _ := run.fleet.counters()
	base := settledHeap()
	half := c.measure / 2
	samplesA, late, nextA := openLoop(run.due, half, serveConns, func(i int, dueAt time.Time) sample {
		return run.submit(ctx, run.fleet.gwURL, i, dueAt, c.traced, tr, &log)
	})
	p := loop{callers: serveConns, first: nextA, op: func(i int, traced bool) sample {
		return run.submit(ctx, run.fleet.gwURL, i, time.Now(), traced, tr, &log)
	}}.run(half, c.traced, tr)
	stopQueue()
	var heap float64
	if !c.traced {
		h := newHeapPeak()
		for k := 0; k < serveProbeRequests; k++ {
			run.submit(ctx, run.fleet.gwURL, p.next+k, time.Now(), false, nil, &log)
			h.checkpoint()
		}
		heap = h.mibAbove(base)
	}
	hits1, misses1, rejected := run.fleet.counters()

	o := &outcome{attempted: len(log.all), setup: setup}
	for _, s := range log.all {
		if s.err != nil {
			o.failed++
		}
	}
	mismatched, err := run.check(ctx, log.all)
	if err != nil {
		return nil, err
	}
	o.failed += mismatched
	closedLoop(o, p, serveConns, tr, heap)
	o.latencies = latencies(samplesA) // serve-fleet's latency is phase A's
	if !c.traced {
		return o, nil
	}

	o.layers["server.hit_ratio"] = ratio(float64(hits1-hits0), float64(hits1-hits0+misses1-misses0))
	o.layers["server.rejected"] = float64(rejected)
	o.layers["server.queue_depth_max"] = float64(queueMax)
	o.layers["loadgen.late_ms_p90"] = quantile(late, 0.9)
	gs, err := run.gatewayStats(ctx)
	if err != nil {
		return nil, err
	}
	o.layers["gateway.failovers"] = float64(gs.Gateway.Failovers)
	o.layers["gateway.errors"] = float64(gs.Gateway.Errors)

	// Backend handler time of traced requests, by cache outcome.
	cacheOf := make(map[uint64]string)
	var missCompute []float64
	for _, s := range log.all {
		if s.trace != 0 {
			cacheOf[s.trace] = s.reply.Cache
		}
		if s.err == nil && s.reply.Cache == "miss" {
			missCompute = append(missCompute, s.reply.Result.SplitWallMs+s.reply.Result.MergeWallMs)
		}
	}
	var hitMs, missMs []float64
	for _, sp := range tr.slice(0, tr.mark()) {
		if sp.Name != "server.handle" {
			continue
		}
		d := float64(sp.End-sp.Start) / 1e6
		switch cacheOf[sp.Trace] {
		case "hit":
			hitMs = append(hitMs, d)
		case "miss":
			missMs = append(missMs, d)
		}
	}
	o.layers["server.hit_latency_p50_ms"] = median(hitMs)
	o.layers["server.miss_latency_p50_ms"] = median(missMs)
	computeMs := 0.0
	for _, v := range missCompute {
		computeMs += v
	}
	o.layers["server.compute_ms_per_miss"] = ratio(computeMs, float64(len(missCompute)))

	// The miss path's steps, timed on their own on the request bodies and
	// weighted by the request mix.
	steps, err := run.stepTimes(ctx)
	if err != nil {
		return nil, err
	}
	var decode, hash, encode float64
	for _, s := range log.all {
		decode += steps[s.req.image].decode
		hash += steps[s.req.image].hash
		encode += steps[s.req.image].encode
	}
	n := float64(len(log.all))
	o.layers["pixmap.decode_ms_per_op"] = ratio(decode, n)
	o.layers["server.hash_ms_per_op"] = ratio(hash, n)
	o.layers["server.encode_ms_per_op"] = ratio(encode, n)

	// The gateway hop: the phase-B sequence replayed, on a fresh fleet at
	// the same addresses, straight to each key's ring owner.
	gwLat := latencies(p.samples)
	addrs := run.fleet.addrs
	run.close()
	closed = true
	direct, err := run.replayDirect(ctx, addrs, nextA, p.next)
	if err != nil {
		return nil, err
	}
	// What a direct miss costs beyond its decode, hash, compute and encode.
	var directAll, unattributed []float64
	for _, s := range direct {
		ms := float64(s.latency) / 1e6
		directAll = append(directAll, ms)
		if s.err != nil {
			o.failed++
			continue
		}
		if s.reply.Cache == "miss" {
			st := steps[s.req.image]
			unattributed = append(unattributed,
				ms-st.decode-st.hash-st.encode-s.reply.Result.SplitWallMs-s.reply.Result.MergeWallMs)
		}
	}
	o.attempted += len(direct)
	bad, err := run.check(ctx, direct)
	if err != nil {
		return nil, err
	}
	o.failed += bad
	o.layers["gateway.hop_ms_p50"] = median(gwLat) - median(directAll)
	o.layers["server.unattributed_ms_per_op"] = median(unattributed)
	return o, nil
}

// check compares every reply with the sequential engine's result for its
// image and seed and returns the number that differ. Each distinct key is
// segmented once per run, on serveConns goroutines.
func (r *serveRun) check(ctx context.Context, log []served) (int, error) {
	if r.refs == nil {
		r.refs = make(map[request]reference)
	}
	var keys []request
	seen := make(map[request]bool)
	for _, s := range log {
		if _, ok := r.refs[s.req]; s.err == nil && !ok && !seen[s.req] {
			seen[s.req] = true
			keys = append(keys, s.req)
		}
	}
	seq, err := regiongrow.New(regiongrow.SequentialEngine)
	if err != nil {
		return 0, err
	}
	refs := make([]reference, len(keys))
	err = replay(len(keys), serveConns, func(i int) error {
		k := keys[i]
		seg, err := seq.Segment(ctx, r.images[k.image].im, regiongrow.Config{Threshold: 10, Tie: regiongrow.RandomTie, Seed: k.seed})
		if err != nil {
			return err
		}
		refs[i] = reference{seg.FinalRegions, seg.MergeIterations}
		return nil
	})
	if err != nil {
		return 0, fmt.Errorf("sequential reference: %w", err)
	}
	for i, k := range keys {
		r.refs[k] = refs[i]
	}
	bad := 0
	for _, s := range log {
		if s.err != nil {
			continue
		}
		if w := r.refs[s.req]; s.reply.Result.FinalRegions != w.regions || s.reply.Result.MergeIterations != w.rounds {
			bad++
		}
	}
	return bad, nil
}

// gatewayStats reads the gateway's public stats document.
func (r *serveRun) gatewayStats(ctx context.Context) (gateway.Stats, error) {
	var gs gateway.Stats
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.fleet.gwURL+"/v1/stats", nil)
	if err != nil {
		return gs, err
	}
	resp, err := r.hc.Do(req)
	if err != nil {
		return gs, err
	}
	defer resp.Body.Close()
	return gs, json.NewDecoder(resp.Body).Decode(&gs)
}

// stepCost is the time, in ms, one miss-path step takes on one image.
type stepCost struct{ decode, hash, encode float64 }

// stepTimes times, per request image, the steps a backend runs on a miss
// around the compute: PGM decode, the content hash and cache key, and the
// JSON encoding of the reply.
func (r *serveRun) stepTimes(ctx context.Context) ([]stepCost, error) {
	seq, err := regiongrow.New(regiongrow.SequentialEngine)
	if err != nil {
		return nil, err
	}
	cfg := regiongrow.Config{Threshold: 10, Tie: regiongrow.RandomTie, Seed: 1}
	out := make([]stepCost, len(r.images))
	for i, img := range r.images {
		seg, err := seq.Segment(ctx, img.im, cfg)
		if err != nil {
			return nil, err
		}
		decode, err := medianMs(func() error {
			_, err := regiongrow.ReadPGM(bytes.NewReader(img.pgm))
			return err
		})
		if err != nil {
			return nil, err
		}
		hash, _ := medianMs(func() error {
			regiongrow.CacheKeyForHash(regiongrow.HashImage(img.im), img.im.W, img.im.H, cfg, regiongrow.SequentialEngine)
			return nil
		})
		// The backend computes the region statistics for every JSON reply,
		// so they count as part of encoding it.
		encode, err := medianMs(func() error {
			enc := json.NewEncoder(io.Discard)
			enc.SetIndent("", "  ")
			return enc.Encode(struct {
				Engine string            `json:"engine"`
				Cache  string            `json:"cache"`
				Image  client.ImageMeta  `json:"image"`
				Config client.ConfigMeta `json:"config"`
				Result client.Result     `json:"result"`
			}{"sequential", "miss", client.ImageMeta{Width: img.im.W, Height: img.im.H, SHA256: img.key},
				client.ConfigMeta{Threshold: cfg.Threshold, Tie: cfg.Tie, Seed: cfg.Seed},
				client.Result{FinalRegions: seg.FinalRegions, MergeIterations: seg.MergeIterations,
					Regions: regiongrow.ComputeRegionStats(seg, img.im)}})
		})
		if err != nil {
			return nil, err
		}
		out[i] = stepCost{decode, hash, encode}
	}
	return out, nil
}

// medianMs runs f 21 times and returns the median wall time of one run, in
// ms: a run the hypervisor interrupts lands in the tail, not the median.
func medianMs(f func() error) (float64, error) {
	times := make([]float64, 21)
	for k := range times {
		t0 := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		times[k] = float64(time.Since(t0)) / 1e6
	}
	return median(times), nil
}

// replayDirect replays requests [0, lo) unmeasured and then [lo, hi)
// measured on a fresh fleet without a gateway, each straight to the ring
// owner of its cache key. It listens on addrs again where it can, so the
// ring — and with it each backend's share of the cache — is the one the
// gateway routed by.
func (r *serveRun) replayDirect(ctx context.Context, addrs []string, lo, hi int) ([]served, error) {
	f, err := startFleet(addrs, false, nil)
	if err != nil {
		f, err = startFleet([]string{"127.0.0.1:0", "127.0.0.1:0"}, false, nil)
	}
	if err != nil {
		return nil, fmt.Errorf("direct fleet: %w", err)
	}
	defer f.close()
	r.hc = newClient()
	defer r.hc.CloseIdleConnections()
	ring := gateway.NewRing(0)
	for _, a := range f.addrs {
		ring.Add(a)
	}
	owner := func(rq request) string {
		img := r.images[rq.image]
		key := regiongrow.CacheKeyForHash(img.key, img.im.W, img.im.H,
			regiongrow.Config{Threshold: 10, Tie: regiongrow.RandomTie, Seed: rq.seed}, regiongrow.SequentialEngine)
		m, _ := ring.Owner(key)
		return "http://" + m
	}
	owners := make([]string, hi)
	for i := range owners {
		owners[i] = owner(r.reqs[i%len(r.reqs)])
	}
	if err := replay(lo, serveConns, func(i int) error {
		_, _, err := r.post(ctx, owners[i], r.reqs[i%len(r.reqs)], 0)
		return err
	}); err != nil {
		return nil, fmt.Errorf("direct warm replay: %w", err)
	}
	var log serveLog
	if err := replay(hi-lo, serveConns, func(i int) error {
		r.submit(ctx, owners[lo+i], lo+i, time.Now(), false, nil, &log)
		return nil
	}); err != nil {
		return nil, err
	}
	return log.all, nil
}
