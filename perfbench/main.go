// Command perfbench is the end-to-end benchmark of vup-server. It runs
// the real cmd/vup-server binary as its own process against a fleet
// store prepared in advance, drives it with one load-generator process,
// checks every answer, and prints every metric by name with its unit.
// A traced run (-trace 1) adds the per-layer split, measured from
// outside the server: the same stack assembled in-process, each request
// replayed through the layers' public functions with a span around each
// call. See README.md for the workloads, the metrics and why.
//
// Run it from the root of a checkout through perfbench/run.sh, which
// builds both binaries:
//
//	bash perfbench/run.sh --workload forecast-hot --seed 1 --seconds 10 --trace 0
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"vup/internal/etl"
	"vup/internal/fstore"
)

// setups is how many times a timed run boots the server; setup_s is
// the median.
const setups = 15

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: forecast-hot, forecast-cold, ingest-visible or evaluation")
		seed    = flag.Uint64("seed", 1, "request-sequence seed")
		seconds = flag.Int("seconds", 10, "measured seconds; sets the fixed operation count of the run")
		traced  = flag.Int("trace", 0, "0: timed run, end-to-end metrics; 1: traced run, per-layer metrics")
		bin     = flag.String("server", ".bench_build/bin/vup-server", "vup-server binary")
		work    = flag.String("work", ".bench_build", "directory for fixtures, server stores, logs and spans")
	)
	flag.Parse()
	w, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		logf("usage: --workload <name> --seed <n> --seconds <n> --trace <0|1>")
		os.Exit(2)
	}
	b := &bench{w: w, seed: *seed, seconds: *seconds, bin: *bin, work: *work}
	res, err := b.run(*traced == 1)
	if err != nil {
		logf("%s: %v", w.name, err)
		os.Exit(1)
	}
	b.print(res)
	if !res.Correct {
		os.Exit(1)
	}
}

type bench struct {
	w       workload
	seed    uint64
	seconds int
	bin     string
	work    string

	fixtures string // directory holding the verified fixture stores
	runDir   string // this run's server stores and logs
	fleet    fleetInfo
	warm     []call
	ops      []op
	vidx     map[string]int
	lines    []string // human-readable report, printed before the result
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type outcome struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	order     []string
}

func (o *outcome) set(name string, v float64, unit string) {
	if o.Metrics == nil {
		o.Metrics = map[string]metric{}
	}
	if _, ok := o.Metrics[name]; !ok {
		o.order = append(o.order, name)
	}
	o.Metrics[name] = metric{Value: v, Unit: unit}
}

func (b *bench) note(format string, args ...any) {
	b.lines = append(b.lines, fmt.Sprintf(format, args...))
}

func (b *bench) print(o *outcome) {
	for _, l := range b.lines {
		fmt.Println(l)
	}
	for _, name := range o.order {
		m := o.Metrics[name]
		fmt.Printf("%-28s %14.6f %s\n", name, m.Value, m.Unit)
	}
	data, err := json.Marshal(o)
	if err != nil {
		logf("encode result: %v", err)
		os.Exit(1)
	}
	fmt.Println(string(data))
}

func (b *bench) run(traced bool) (*outcome, error) {
	root, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		return nil, fmt.Errorf("run from the root of a vup checkout: %w", err)
	}
	if b.fixtures, err = ensureFixtures(root, b.work); err != nil {
		return nil, err
	}
	b.runDir = filepath.Join(b.work, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(b.runDir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(b.runDir)
	if err := b.loadFleet(); err != nil {
		return nil, err
	}
	if b.warm, b.ops, err = b.w.generate(b.seed, b.w.opCount(b.seconds), b.fleet); err != nil {
		return nil, err
	}
	b.note("perfbench workload=%s seed=%d seconds=%d trace=%t", b.w.name, b.seed, b.seconds, traced)
	b.note("host nproc=%d cpu_model=%q", runtime.NumCPU(), cpuModel())
	if traced {
		return b.tracedRun()
	}
	return b.timedRun()
}

func (b *bench) fixturePath() string { return filepath.Join(b.fixtures, b.w.fixture.name) }

// storeFor returns a data directory for one server: a fresh copy of
// the small fixture, which writable workloads change, or the study
// fixture itself, which the lazy read-only workload never writes.
func (b *bench) storeFor(tag string) (string, error) {
	if b.w.lazy {
		return b.fixturePath(), nil
	}
	dst := filepath.Join(b.runDir, tag)
	return dst, copyStore(b.fixturePath(), dst)
}

// dropStore deletes a copy storeFor made, as soon as its server is
// gone: fifteen dead copies would otherwise reach writeback, and the
// disk, during a long timed phase. The fixture itself is kept.
func (b *bench) dropStore(path string) error {
	if path == b.fixturePath() {
		return nil
	}
	return os.RemoveAll(path)
}

func (b *bench) loadFleet() error {
	dir, err := fstore.Open(b.fixturePath())
	if err != nil {
		return err
	}
	defer dir.Close()
	b.fleet.ids = dir.VehicleIDs()
	b.vidx = make(map[string]int, len(b.fleet.ids))
	for i, id := range b.fleet.ids {
		b.vidx[id] = i
	}
	if b.w.name == "ingest-visible" {
		datasets, _, err := dir.Load()
		if err != nil {
			return err
		}
		b.fleet.datasets = make(map[string]*etl.VehicleDataset, len(datasets))
		for _, d := range datasets {
			b.fleet.datasets[d.VehicleID] = d
		}
	}
	return nil
}

// serverRun is one timed phase against a vup-server process.
type serverRun struct {
	setups        []time.Duration
	run           run
	rounds        []round
	hwmMB         float64
	before, after counters
	steal         float64
}

// timedPhase boots the server `boots` times, each boot on a fresh store
// and followed by the workload's warm-up, and sends the operations to
// the last one.
func (b *bench) timedPhase(ops []op, boots int) (*serverRun, error) {
	sr := &serverRun{}
	mc := &http.Client{Timeout: 30 * time.Second}
	for k := 0; k < boots; k++ {
		dataDir, err := b.storeFor(fmt.Sprintf("boot-%d", k))
		if err != nil {
			return nil, err
		}
		p, start, err := startServer(b.bin, dataDir, filepath.Join(b.runDir, fmt.Sprintf("server-%d.log", k)), b.w.serverArgs())
		if err != nil {
			return nil, err
		}
		c := newClient(p.base, b.w.conns)
		err = b.warmUp(c)
		sr.setups = append(sr.setups, time.Since(start))
		if err != nil || k < boots-1 {
			c.close()
			p.stop()
			if err == nil {
				err = b.dropStore(dataDir)
			}
			if err != nil {
				return nil, err
			}
			continue
		}
		sr.before, err = scrape(mc, p.base, p.debug)
		if err != nil {
			c.close()
			p.stop()
			return nil, err
		}
		pid := p.cmd.Process.Pid
		h0 := readHostCPU()
		if b.w.openLoop {
			var cpu0, cpu1 time.Duration
			cpu0, err = procCPU(pid)
			sr.run = openLoop(c, ops, float64(b.w.perSecond), b.w.conns, b.vidx)
			if err == nil {
				cpu1, err = procCPU(pid)
			}
			sr.rounds = []round{{ops: len(ops), wall: sr.run.wall, cpu: cpu1 - cpu0}}
		} else {
			sr.run, sr.rounds, err = closedLoopRounds(c, ops, pid, b.w.rounds)
		}
		sr.steal = stealPct(h0, readHostCPU())
		if err != nil {
			c.close()
			p.stop()
			return nil, err
		}
		sr.after, err = scrape(mc, p.base, p.debug)
		if err == nil {
			sr.hwmMB, err = procHWM(pid)
		}
		c.close()
		p.stop()
		if err != nil {
			return nil, err
		}
	}
	return sr, nil
}

func (b *bench) warmUp(c *client) error {
	var buf bytes.Buffer
	for _, cl := range b.warm {
		res := c.do(cl, &buf)
		if res.status != http.StatusOK {
			return fmt.Errorf("warm-up %s: status %d: %.200s", cl.path(), res.status, res.body)
		}
	}
	return nil
}

// oracle computes the expected answer of every timed call by replaying
// it in-process, outside the timed phase: reads once per distinct call
// on two workers, the ingest sequence in order on a fresh store.
func (b *bench) oracle(ops []op) ([][][]byte, error) {
	path, err := b.storeFor("oracle")
	if err != nil {
		return nil, err
	}
	s, err := newStack(b.w, path, nil, b.w.name == "ingest-visible")
	if err != nil {
		return nil, err
	}
	defer s.close()
	ctx := context.Background()
	answers := make([][][]byte, len(ops))
	if b.w.name == "ingest-visible" {
		for i, o := range ops {
			answers[i] = make([][]byte, len(o.calls))
			for j, c := range o.calls {
				if answers[i][j], err = s.replay(ctx, c); err != nil {
					return nil, fmt.Errorf("oracle %s: %w", c.path(), err)
				}
			}
		}
		return answers, nil
	}
	var keys []call
	seen := map[string]bool{}
	for _, o := range ops {
		for _, c := range o.calls {
			if !seen[c.key()] {
				seen[c.key()] = true
				keys = append(keys, c)
			}
		}
	}
	byKey := make([][]byte, len(keys))
	errs := make([]error, len(keys))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := int(next.Add(1)) - 1; k < len(keys); k = int(next.Add(1)) - 1 {
				byKey[k], errs[k] = s.replay(ctx, keys[k])
			}
		}()
	}
	wg.Wait()
	index := map[string]int{}
	for k, c := range keys {
		if errs[k] != nil {
			return nil, fmt.Errorf("oracle %s: %w", c.path(), errs[k])
		}
		index[c.key()] = k
	}
	for i, o := range ops {
		answers[i] = make([][]byte, len(o.calls))
		for j, c := range o.calls {
			answers[i][j] = byKey[index[c.key()]]
		}
	}
	return answers, nil
}

// verifyAnswers checks every call of a phase against the oracle and
// returns the number of failed operations.
func (b *bench) verifyAnswers(phase string, ops []op, results [][]result, answers [][][]byte) (bad []bool, failed int, ck *checker) {
	ck = newChecker()
	bad = make([]bool, len(ops))
	for i, o := range ops {
		wrong := false
		for j, c := range o.calls {
			if err := ck.check(c, results[i][j].status, results[i][j].body, answers[i][j]); err != nil {
				if failed < 5 {
					logf("%s: op %d: %v", phase, i, err)
				}
				wrong = true
			}
		}
		if wrong {
			bad[i] = true
			failed++
		}
	}
	return bad, failed, ck
}

// workloadStats are the quantities the self-checks look at.
type workloadStats struct {
	hitRatio, loadsPerReq, extendRatio, fitsPerReq float64
	compactions                                    float64
	// lazy, resident and total are /healthz's lazy_load,
	// resident_vehicles and total_vehicles at the end of the phase.
	lazy            bool
	resident, total float64
}

// selfCheck fails the run when the workload stops stressing the layer
// it exists for.
func (b *bench) selfCheck(st workloadStats) error {
	var errs []error
	fail := func(format string, args ...any) { errs = append(errs, fmt.Errorf(format, args...)) }
	switch b.w.name {
	case "forecast-hot":
		if st.hitRatio < 0.99 {
			fail("cache hit ratio %.4f < 0.99: forecast-hot no longer serves from cache", st.hitRatio)
		}
		// An eager store has no loader, so fstore loads are 0 by
		// construction; what can break is the boot mode itself.
		if st.lazy || st.resident != st.total {
			fail("/healthz lazy_load=%t resident_vehicles=%.0f total_vehicles=%.0f: forecast-hot must serve a fully resident eager store",
				st.lazy, st.resident, st.total)
		}
	case "forecast-cold":
		if st.hitRatio > 0.15 {
			fail("cache hit ratio %.4f > 0.15: forecast-cold no longer misses", st.hitRatio)
		}
		if st.loadsPerReq < 0.5 {
			fail("%.4f fstore loads per request < 0.5: forecast-cold no longer faults vehicles in", st.loadsPerReq)
		}
	case "ingest-visible":
		if st.extendRatio <= 0 {
			fail("plan extend ratio %.4f: post-ingest forecasts no longer extend plans", st.extendRatio)
		}
		if st.compactions <= 0 {
			fail("no append-log compaction during the run")
		}
	case "evaluation":
		if st.hitRatio != 0 {
			fail("cache hit ratio %.4f: evaluations must all miss", st.hitRatio)
		}
		if st.fitsPerReq < 50 {
			fail("%.1f fits per evaluation < 50: evaluation no longer refits per window", st.fitsPerReq)
		}
	}
	return errors.Join(errs...)
}

// serverStats derives the self-check quantities from a server's own
// counters over a phase.
func serverStats(before, after counters, nOps int, predictions int) workloadStats {
	var st workloadStats
	hits := before.delta(after, "healthz.cache_hits")
	misses := before.delta(after, "healthz.cache_misses")
	if hits+misses > 0 {
		st.hitRatio = hits / (hits + misses)
	}
	st.loadsPerReq = before.delta(after, "fstore_lazy_loads_total") / float64(nOps)
	ext := before.delta(after, "forecast_plan_extended_total")
	reb := before.delta(after, "forecast_plan_rebuilt_total")
	if ext+reb > 0 {
		st.extendRatio = ext / (ext + reb)
	}
	st.compactions = before.delta(after, "fstore_compactions_total")
	st.fitsPerReq = float64(predictions) / float64(nOps)
	st.residency(after)
	return st
}

// residency copies /healthz's boot mode and resident set from a scrape.
func (st *workloadStats) residency(c counters) {
	st.lazy = c["healthz.lazy_load"] != 0
	st.resident, st.total = c["healthz.resident_vehicles"], c["healthz.total_vehicles"]
}

func (b *bench) timedRun() (*outcome, error) {
	sr, err := b.timedPhase(b.ops, setups)
	if err != nil {
		return nil, err
	}
	answers, err := b.oracle(b.ops)
	if err != nil {
		return nil, err
	}
	bad, failed, ck := b.verifyAnswers("timed", b.ops, sr.run.results, answers)
	n := len(b.ops)
	completed := n - failed
	o := &outcome{Attempted: n, Failed: failed}
	b.note("requests sent=%d succeeded=%d failed=%d (operations; %d HTTP calls each)", n, completed, failed, len(b.ops[0].calls))
	st := serverStats(sr.before, sr.after, n, ck.predictions)
	checkErr := b.selfCheck(st)
	if checkErr != nil {
		logf("self-check: %v", checkErr)
	}
	o.Correct = failed == 0 && checkErr == nil

	setupsSorted := sortedCopy(sr.setups)
	b.note("setup_s samples %v", sr.setups)
	_, tailText := describeTail(sr.run.latency)
	lat := sortedCopy(sr.run.latency)
	b.note("client.latency_ms p25=%.4f p50=%.4f p75=%.4f p90=%.4f", ms(quantile(lat, 0.25)), ms(quantile(lat, 0.5)), ms(quantile(lat, 0.75)), ms(quantile(lat, 0.9)))
	b.note("client.latency_tail_ms %s", tailText)
	var late time.Duration
	for _, l := range sr.run.late {
		late += l
	}
	b.note("client.generator_late_ms mean=%.4f", ms(late)/float64(n))
	b.note("host.steal_pct %.2f %%", sr.steal)
	b.note("self-check hit_ratio=%.4f loads_per_req=%.4f extend_ratio=%.4f compactions=%.0f fits_per_req=%.1f lazy_load=%t resident=%.0f/%.0f",
		st.hitRatio, st.loadsPerReq, st.extendRatio, st.compactions, st.fitsPerReq, st.lazy, st.resident, st.total)
	o.set("setup_s", quantile(setupsSorted, 0.5).Seconds(), "s")
	var rps, cpu []float64
	for _, r := range sr.rounds {
		done := r.ops
		for _, wrong := range bad[r.first : r.first+r.ops] {
			if wrong {
				done--
			}
		}
		rps = append(rps, float64(done)/r.wall.Seconds())
		cpu = append(cpu, ms(r.cpu)/float64(done))
	}
	p50s := roundP50s(sr.run.latency, b.w.rounds)
	b.note("rounds throughput_rps=%.6g server_cpu_ms_per_req=%.6g latency_p50_ms=%.6g", rps, cpu, p50s)
	o.set("throughput_rps", median(rps), "1/s")
	o.set("latency_p50_ms", median(p50s), "ms")
	o.set("server_cpu_ms_per_req", median(cpu), "ms")
	o.set("server_rss_peak_mb", sr.hwmMB, "MiB")
	return o, nil
}

// tracedRun measures the per-layer split. First a timed phase over the
// workload's traced share of the operations against the real server
// gives the runtime counters, the client-side tail and the untraced
// latency; then the same operations run against an in-process stack
// through a timed handler, each call replayed layer by layer on a twin
// stack.
func (b *bench) tracedRun() (*outcome, error) {
	n := max(len(b.ops)/b.w.tracedShare, 1)
	ops := b.ops[:n]
	h0 := readHostCPU()
	sr, err := b.timedPhase(ops, 1)
	if err != nil {
		return nil, err
	}
	tr := &tracer{t0: time.Now()}
	tp, err := b.tracedPhase(ops, tr)
	if err != nil {
		return nil, err
	}
	steal := stealPct(h0, readHostCPU())

	_, failedA, ckA := b.verifyAnswers("timed", ops, sr.run.results, tp.answers)
	_, failedB, _ := b.verifyAnswers("traced", ops, tp.results, tp.answers)
	o := &outcome{Attempted: 2 * n, Failed: failedA + failedB}
	b.note("requests sent=%d succeeded=%d failed=%d (operations, timed and traced phases)", 2*n, 2*n-o.Failed, o.Failed)

	stA := serverStats(sr.before, sr.after, n, ckA.predictions)
	checkErr := errors.Join(b.selfCheck(stA), b.selfCheck(tp.stats), tp.divergence)
	if checkErr != nil {
		logf("self-check: %v", checkErr)
	}
	o.Correct = o.Failed == 0 && checkErr == nil

	fn := float64(n)
	perOp := func(d time.Duration) float64 { return ms(d) / fn }
	o.set("http.overhead_ms", perOp(tp.roundTrip-tp.handler), "ms")
	o.set("server.handler_ms", perOp(tp.handler), "ms")
	o.set("server.other_ms", perOp(tp.other), "ms")
	for _, l := range layers {
		o.set(l.metric, perOp(tp.self[l.span]), "ms")
	}
	o.set("server.cache_hit_ratio", tp.stats.hitRatio, "ratio")
	o.set("fstore.loads_per_req", tp.stats.loadsPerReq, "1/req")
	o.set("fstore.evictions_per_req", tp.evictions/fn, "1/req")
	o.set("fstore.compactions_per_req", tp.stats.compactions/fn, "1/req")
	o.set("core.plan_extend_ratio", tp.stats.extendRatio, "ratio")
	o.set("regress.fits_per_req", tp.stats.fitsPerReq, "1/req")
	o.set("runtime.alloc_kb_per_req", sr.before.delta(sr.after, "memstats.TotalAlloc")/1024/fn, "kB/req")
	o.set("runtime.gc_per_1k_req", sr.before.delta(sr.after, "memstats.NumGC")*1000/fn, "1/1000req")
	tailV, tailText := describeTail(sr.run.latency)
	b.note("client.latency_tail_ms %s (timed phase)", tailText)
	o.set("client.latency_tail_ms", ms(tailV), "ms")
	var late time.Duration
	for _, l := range sr.run.late {
		late += l
	}
	o.set("client.generator_late_ms", perOp(late), "ms")
	o.set("host.steal_pct", steal, "%")
	timedP50 := medianDuration(sr.run.latency)
	o.set("trace.overhead_pct", 100*(ms(medianDuration(tp.opRoundTrip))-ms(timedP50))/ms(timedP50), "%")

	if err := b.writeSpans(tr); err != nil {
		return nil, err
	}
	return o, nil
}

// layers maps each replay span to its per-layer metric.
var layers = []struct{ span, metric string }{
	{"server.acquire", "server.acquire_ms"},
	{"server.cache_lookup", "server.cache_lookup_ms"},
	{"server.decode", "server.decode_ms"},
	{"server.encode", "server.encode_ms"},
	{"server.append", "server.append_ms"},
	{"fstore.load", "fstore.load_ms"},
	{"fstore.append", "fstore.append_ms"},
	{"fstore.compact", "fstore.compact_ms"},
	{"fstore.persist", "fstore.persist_ms"},
	{"featsel.materialize", "featsel.materialize_ms"},
	{"core.plan_build", "core.plan_build_ms"},
	{"core.plan_extend", "core.plan_extend_ms"},
	{"core.fit", "core.fit_ms"},
	{"core.predict", "core.predict_ms"},
	{"core.evaluate", "core.evaluate_ms"},
}

func knownSpan(name string) bool {
	for _, l := range layers {
		if l.span == name {
			return true
		}
	}
	return false
}

// tracedResult is the in-process traced phase.
type tracedResult struct {
	results     [][]result
	answers     [][][]byte // the replay's encoded answer per call
	roundTrip   time.Duration
	handler     time.Duration
	other       time.Duration
	self        map[string]time.Duration
	opRoundTrip []time.Duration
	stats       workloadStats
	evictions   float64
	divergence  error // the served and replayed stacks did different work
}

func (b *bench) tracedPhase(ops []op, tr *tracer) (*tracedResult, error) {
	pathA, err := b.storeFor("served")
	if err != nil {
		return nil, err
	}
	pathB, err := b.storeFor("replayed")
	if err != nil {
		return nil, err
	}
	served, err := newStack(b.w, pathA, nil, false)
	if err != nil {
		return nil, err
	}
	defer served.close()
	replayed, err := newStack(b.w, pathB, tr, true)
	if err != nil {
		return nil, err
	}
	defer replayed.close()

	handlerDone := make(chan interval, 1)
	h := served.api.Handler()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		h.ServeHTTP(w, r)
		if r.URL.Path != "/metrics" && r.URL.Path != "/healthz" { // the benchmark's own scrapes
			handlerDone <- interval{t0, time.Since(t0)}
		}
	})}
	serveDone := make(chan struct{})
	go func() {
		defer close(serveDone)
		_ = srv.Serve(ln) // returns http.ErrServerClosed after Close below
	}()
	defer func() {
		_ = srv.Close()
		<-serveDone
	}()
	base := "http://" + ln.Addr().String()
	c := newClient(base, 1)
	defer c.close()
	ctx := context.Background()
	buf := new(bytes.Buffer)

	awaitHandler := func() (interval, error) {
		select {
		case h := <-handlerDone:
			return h, nil
		case <-time.After(30 * time.Second):
			return interval{}, fmt.Errorf("handler span never ended")
		}
	}
	for i, cl := range b.warm {
		res := c.do(cl, buf)
		if res.status != http.StatusOK {
			return nil, fmt.Errorf("warm-up %s: status %d: %.200s", cl.path(), res.status, res.body)
		}
		if _, err := awaitHandler(); err != nil {
			return nil, err
		}
		tr.startCall(-1, i)
		_, err := replayed.replay(ctx, cl)
		if err == nil {
			err = replayed.rerun()
		}
		if err != nil {
			return nil, fmt.Errorf("warm-up replay %s: %w", cl.path(), err)
		}
		if _, err := tr.finishCall(interval{}, interval{}); err != nil {
			return nil, err
		}
	}

	mc := &http.Client{Timeout: 30 * time.Second}
	sBefore, err := scrape(mc, base, "")
	if err != nil {
		return nil, err
	}
	statsA0, statsB0 := served.cache.Stats(), replayed.cache.Stats()
	hooksA0, hooksB0 := served.hookCounts(), replayed.hookCounts()
	resident0, _ := replayed.store.ResidentStats()
	ext0, reb0, fits0 := replayed.extends.Load(), replayed.rebuilds.Load(), replayed.fits.Load()

	tp := &tracedResult{results: make([][]result, len(ops)), answers: make([][][]byte, len(ops)), self: map[string]time.Duration{}}
	tr.on = true
	for i, o := range ops {
		tp.results[i] = make([]result, len(o.calls))
		tp.answers[i] = make([][]byte, len(o.calls))
		var opRT time.Duration
		for j, cl := range o.calls {
			t0 := time.Now()
			tp.results[i][j] = c.do(cl, buf)
			rt := interval{t0, time.Since(t0)}
			h, err := awaitHandler()
			if err != nil {
				return nil, fmt.Errorf("%s: %w", cl.path(), err)
			}
			tr.startCall(i, j)
			tp.answers[i][j], err = replayed.replay(ctx, cl)
			if err == nil {
				err = replayed.rerun()
			}
			if err != nil {
				return nil, fmt.Errorf("replay %s: %w", cl.path(), err)
			}
			self, err := tr.finishCall(h, rt)
			if err != nil {
				return nil, err
			}
			// Every span belongs to a printed layer, and other is the
			// rest of this call's handler span, so for each call the
			// layers plus server.other_ms add up to the handler span.
			var attributed time.Duration
			for name, d := range self {
				if !knownSpan(name) {
					return nil, fmt.Errorf("span %q has no layer metric", name)
				}
				tp.self[name] += d
				attributed += d
			}
			tp.other += h.dur - attributed
			tp.handler += h.dur
			tp.roundTrip += rt.dur
			opRT += rt.dur
		}
		tp.opRoundTrip = append(tp.opRoundTrip, opRT)
	}
	tr.on = false

	sAfter, err := scrape(mc, base, "")
	if err != nil {
		return nil, err
	}
	statsA, statsB := served.cache.Stats(), replayed.cache.Stats()
	hooksA, hooksB := served.hookCounts(), replayed.hookCounts()
	resident, _ := replayed.store.ResidentStats()
	fn := float64(len(ops))
	hits, misses := float64(statsB.Hits-statsB0.Hits), float64(statsB.Misses-statsB0.Misses)
	if hits+misses > 0 {
		tp.stats.hitRatio = hits / (hits + misses)
	}
	loads := float64(hooksB.loads - hooksB0.loads)
	tp.stats.loadsPerReq = loads / fn
	tp.evictions = loads - float64(resident-resident0)
	tp.stats.compactions = float64(hooksB.compactions - hooksB0.compactions)
	ext, reb := float64(replayed.extends.Load()-ext0), float64(replayed.rebuilds.Load()-reb0)
	if ext+reb > 0 {
		tp.stats.extendRatio = ext / (ext + reb)
	}
	tp.stats.fitsPerReq = float64(replayed.fits.Load()-fits0) / fn
	tp.stats.residency(sAfter)

	// The replay must have done the work the handler did: same cache
	// outcomes, loads, compactions and plan builds.
	var div []error
	if statsA.Hits-statsA0.Hits != statsB.Hits-statsB0.Hits || statsA.Misses-statsA0.Misses != statsB.Misses-statsB0.Misses {
		div = append(div, fmt.Errorf("cache outcomes differ: served %d hits/%d misses, replayed %d/%d",
			statsA.Hits-statsA0.Hits, statsA.Misses-statsA0.Misses, statsB.Hits-statsB0.Hits, statsB.Misses-statsB0.Misses))
	}
	if hooksA.loads-hooksA0.loads != hooksB.loads-hooksB0.loads || hooksA.compactions-hooksA0.compactions != hooksB.compactions-hooksB0.compactions ||
		hooksA.appends-hooksA0.appends != hooksB.appends-hooksB0.appends {
		div = append(div, fmt.Errorf("store hook calls differ: served %+v, replayed %+v", hooksA, hooksB))
	}
	if sBefore.delta(sAfter, "forecast_plan_extended_total") != ext || sBefore.delta(sAfter, "forecast_plan_rebuilt_total") != reb {
		div = append(div, fmt.Errorf("plan builds differ: served %.0f extended/%.0f rebuilt, replayed %.0f/%.0f",
			sBefore.delta(sAfter, "forecast_plan_extended_total"), sBefore.delta(sAfter, "forecast_plan_rebuilt_total"), ext, reb))
	}
	tp.divergence = errors.Join(div...)
	return tp, nil
}

// writeSpans writes every traced call's spans, one JSON object a line,
// to <work>/traces/<workload>-seed<seed>.jsonl.
func (b *bench) writeSpans(tr *tracer) error {
	dir := filepath.Join(b.work, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", b.w.name, b.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, sp := range tr.all {
		if err := enc.Encode(sp); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	b.note("spans written to %s (%d spans)", path, len(tr.all))
	return nil
}
