package main

import (
	"bytes"
	"fmt"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"time"
)

// client sends calls over at most conns keep-alive connections.
type client struct {
	hc   *http.Client
	base string
}

func newClient(base string, conns int) *client {
	tr := &http.Transport{
		Proxy:               nil,
		MaxIdleConns:        conns,
		MaxIdleConnsPerHost: conns,
		MaxConnsPerHost:     conns,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}
	return &client{hc: &http.Client{Transport: tr, Timeout: 150 * time.Second}, base: base}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// result is what came back for one call. A transport error leaves
// status 0 and the error text in body.
type result struct {
	status int
	body   []byte
}

func (c *client) do(cl call, buf *bytes.Buffer) result {
	var req *http.Request
	var err error
	if cl.kind == kIngest {
		req, err = http.NewRequest(http.MethodPost, c.base+cl.path(), bytes.NewReader(cl.body))
		if err == nil {
			req.Header.Set("Content-Type", "application/json")
		}
	} else {
		req, err = http.NewRequest(http.MethodGet, c.base+cl.path(), nil)
	}
	if err != nil {
		return result{body: []byte(err.Error())}
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return result{body: []byte(err.Error())}
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return result{body: []byte(err.Error())}
	}
	return result{status: resp.StatusCode, body: append([]byte(nil), buf.Bytes()...)}
}

// run is the outcome of sending a sequence of operations.
type run struct {
	results [][]result      // per op, per call
	latency []time.Duration // per op: client-side, from when it was due
	late    []time.Duration // per op: how late the generator started it
	wall    time.Duration   // first send to last completion
}

// closedLoop sends the operations back to back on one connection: each
// operation starts when the previous one completed.
func closedLoop(c *client, ops []op) run {
	r := run{results: make([][]result, len(ops)), latency: make([]time.Duration, len(ops)), late: make([]time.Duration, len(ops))}
	var buf bytes.Buffer
	start := time.Now()
	for i, o := range ops {
		t0 := time.Now()
		res := make([]result, len(o.calls))
		for j, cl := range o.calls {
			res[j] = c.do(cl, &buf)
		}
		r.results[i] = res
		r.latency[i] = time.Since(t0)
	}
	r.wall = time.Since(start)
	return r
}

// round is one timed slice of a phase.
type round struct {
	first, ops int // the round's operations are ops[first:first+ops]
	wall       time.Duration
	cpu        time.Duration // server user+system CPU
}

// closedLoopRounds runs the operations as one closed loop, reading the
// server's CPU time at every round boundary.
func closedLoopRounds(c *client, ops []op, pid, rounds int) (run, []round, error) {
	var all run
	var rs []round
	for k := 0; k < rounds; k++ {
		first := k * len(ops) / rounds
		chunk := ops[first : (k+1)*len(ops)/rounds]
		if len(chunk) == 0 {
			continue
		}
		cpu0, err := procCPU(pid)
		if err != nil {
			return all, nil, err
		}
		r := closedLoop(c, chunk)
		cpu1, err := procCPU(pid)
		if err != nil {
			return all, nil, err
		}
		rs = append(rs, round{first: first, ops: len(chunk), wall: r.wall, cpu: cpu1 - cpu0})
		all.results = append(all.results, r.results...)
		all.latency = append(all.latency, r.latency...)
		all.late = append(all.late, r.late...)
		all.wall += r.wall
	}
	return all, rs, nil
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// spinWindow is how long before an operation is due the open loop stops
// sleeping and yields in a loop instead. A timer wake-up alone
// overshoots by about 0.6 ms on an idle 2-vCPU VM, and by more and
// less predictably on a busy host; latency from the due time would
// charge that to the server.
const spinWindow = 2 * time.Millisecond

// waitUntil returns at t, not later than the scheduler allows.
func waitUntil(t time.Time) {
	if d := time.Until(t) - spinWindow; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// openLoop sends operation i when it is due, at start + i/rate,
// whatever the state of earlier ones. Operations are split over conns
// workers by vehicle, so one vehicle's batches stay in order; latency
// runs from the due time, so a stall also charges the operations queued
// behind it.
func openLoop(c *client, ops []op, rate float64, conns int, vehicleIndex map[string]int) run {
	r := run{results: make([][]result, len(ops)), latency: make([]time.Duration, len(ops)), late: make([]time.Duration, len(ops))}
	interval := time.Duration(float64(time.Second) / rate)
	start := time.Now().Add(5 * time.Millisecond)
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var buf bytes.Buffer
			for i, o := range ops {
				if vehicleIndex[o.calls[0].vehicle]%conns != w {
					continue
				}
				due := start.Add(time.Duration(i) * interval)
				waitUntil(due)
				r.late[i] = time.Since(due)
				res := make([]result, len(o.calls))
				for j, cl := range o.calls {
					res[j] = c.do(cl, &buf)
				}
				r.results[i] = res
				r.latency[i] = time.Since(due)
			}
		}(w)
	}
	wg.Wait()
	r.wall = time.Since(start)
	return r
}

// quantile returns the q-quantile (0..1) of sorted durations by the
// nearest-rank rule.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func sortedCopy(d []time.Duration) []time.Duration {
	s := append([]time.Duration(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

// tailPercentile is the highest of a few standard percentiles that has
// at least ten samples beyond it.
func tailPercentile(n int) float64 {
	for _, p := range []float64{99.9, 99, 95, 90, 75} {
		if float64(n)*(100-p)/100 >= 10 {
			return p
		}
	}
	return 50
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func medianDuration(d []time.Duration) time.Duration {
	return quantile(sortedCopy(d), 0.5)
}

// roundP50s are the median latencies, in ms, of the phase's rounds:
// consecutive slices of its operations. latency_p50_ms is their median.
func roundP50s(lat []time.Duration, rounds int) []float64 {
	var p50s []float64
	for k := 0; k < rounds; k++ {
		if s := lat[k*len(lat)/rounds : (k+1)*len(lat)/rounds]; len(s) > 0 {
			p50s = append(p50s, ms(medianDuration(s)))
		}
	}
	return p50s
}

// describeTail returns the tail latency and how to print it: its
// percentile and sample count.
func describeTail(lat []time.Duration) (time.Duration, string) {
	p := tailPercentile(len(lat))
	v := quantile(sortedCopy(lat), p/100)
	return v, fmt.Sprintf("p%g=%.4f ms over %d samples", p, ms(v), len(lat))
}
