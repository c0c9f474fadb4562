package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// serverProc is one vup-server process started by the benchmark.
type serverProc struct {
	cmd     *exec.Cmd
	base    string // http://127.0.0.1:port
	debug   string // http://127.0.0.1:port of -debug-addr
	exited  chan struct{}
	exitErr error
}

// freePorts asks the kernel for n distinct unused loopback ports. The
// listeners stay open until all n are chosen, so the kernel cannot hand
// out the same port twice.
func freePorts(n int) ([]int, error) {
	ports := make([]int, 0, n)
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		defer l.Close()
		ports = append(ports, l.Addr().(*net.TCPAddr).Port)
	}
	return ports, nil
}

// healthPoll is the /healthz poll interval during boot. It is far below
// any boot time, so the interval is not what setup_s measures.
const healthPoll = 100 * time.Microsecond

// errPortTaken marks a boot that failed because another process bound
// one of the chosen ports between choosing and binding.
var errPortTaken = errors.New("port taken")

// startServer execs vup-server with tracing off and -debug-addr on, and
// returns once /healthz answers 200. The clock starts just before the
// exec of the boot that succeeded: a boot that lost its port to another
// process is retried on fresh ports.
func startServer(bin, dataDir, logPath string, args []string) (*serverProc, time.Time, error) {
	for attempt := 1; ; attempt++ {
		p, start, err := bootServer(bin, dataDir, logPath, args)
		if !errors.Is(err, errPortTaken) || attempt == 3 {
			return p, start, err
		}
	}
}

func bootServer(bin, dataDir, logPath string, args []string) (*serverProc, time.Time, error) {
	ports, err := freePorts(2)
	if err != nil {
		return nil, time.Time{}, err
	}
	port, dport := ports[0], ports[1]
	full := append([]string{
		"-addr", fmt.Sprintf("127.0.0.1:%d", port),
		"-debug-addr", fmt.Sprintf("127.0.0.1:%d", dport),
		"-data-dir", dataDir,
		"-trace-buffer", "0",
	}, args...)
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, time.Time{}, err
	}
	cmd := exec.Command(bin, full...)
	cmd.Stderr = logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	p := &serverProc{
		cmd:    cmd,
		base:   fmt.Sprintf("http://127.0.0.1:%d", port),
		debug:  fmt.Sprintf("http://127.0.0.1:%d", dport),
		exited: make(chan struct{}),
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, start, fmt.Errorf("start vup-server: %w", err)
	}
	go func() {
		p.exitErr = cmd.Wait()
		logf.Close()
		close(p.exited)
	}()
	poll := &http.Client{Transport: &http.Transport{DisableKeepAlives: true, Proxy: nil}, Timeout: 5 * time.Second}
	deadline := start.Add(60 * time.Second)
	for {
		resp, err := poll.Get(p.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return p, start, nil
			}
		}
		select {
		case <-p.exited:
			log := tail(logPath)
			if strings.Contains(log, "address already in use") {
				return nil, start, fmt.Errorf("%w: %s", errPortTaken, log)
			}
			return nil, start, fmt.Errorf("vup-server exited during boot (%v); log: %s", p.exitErr, log)
		default:
		}
		if time.Now().After(deadline) {
			p.stop()
			return nil, start, fmt.Errorf("vup-server did not answer /healthz within 60s; log: %s", tail(logPath))
		}
		time.Sleep(healthPoll)
	}
}

// stop kills the server and waits for it to exit. SIGKILL, not SIGTERM:
// a graceful shutdown re-snapshots the store, which is not part of any
// measurement and would only write to the fixture copy.
func (p *serverProc) stop() {
	if p == nil {
		return
	}
	select {
	case <-p.exited:
		return
	default:
	}
	_ = p.cmd.Process.Kill() // already exiting is fine; Wait below is what counts
	<-p.exited
}

func tail(path string) string {
	data, _ := os.ReadFile(path)
	if len(data) > 2000 {
		data = data[len(data)-2000:]
	}
	return strings.TrimSpace(string(data))
}

// procCPU returns the process's user+system CPU time from
// /proc/<pid>/stat (all threads).
func procCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may contain spaces; fields after it
	// start past the closing parenthesis.
	s := string(data)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("parse /proc/%d/stat", pid)
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("parse /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parse /proc/%d/stat", pid)
	}
	const userHZ = 100 // USER_HZ is 100 on every Linux ABI Go supports
	return time.Duration(utime+stime) * time.Second / userHZ, nil
}

// procHWM returns the process's peak resident set (VmHWM) in MiB.
func procHWM(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// hostCPU is one reading of the aggregate line of /proc/stat.
type hostCPU struct{ steal, total uint64 }

func readHostCPU() hostCPU {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostCPU{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	var h hostCPU
	for i := 1; i < len(f) && i <= 8; i++ { // user nice system idle iowait irq softirq steal
		v, _ := strconv.ParseUint(f[i], 10, 64)
		h.total += v
		if i == 8 {
			h.steal = v
		}
	}
	return h
}

// stealPct is the share of all CPU time the hypervisor gave to other
// tenants between two readings.
func stealPct(a, b hostCPU) float64 {
	if b.total <= a.total {
		return 0
	}
	return 100 * float64(b.steal-a.steal) / float64(b.total-a.total)
}

func cpuModel() string {
	data, _ := os.ReadFile("/proc/cpuinfo")
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// counters is one scrape of the server's own bookkeeping: /metrics
// counters, /healthz cache counts and residency (lazy_load as 0 or 1),
// and /debug/vars memstats. A counter that is not exposed at all fails
// the scrape: a renamed metric must stop the benchmark, not read as
// zero.
type counters map[string]float64

var metricNames = []string{
	"fstore_lazy_loads_total",
	"fstore_evictions_total",
	"fstore_compactions_total",
	"forecast_plan_extended_total",
	"forecast_plan_rebuilt_total",
}

// scrape reads the counters from a server's API address and, when debug
// is not empty, the memstats from its -debug-addr.
func scrape(c *http.Client, base, debug string) (counters, error) {
	out := counters{}
	body, err := get(c, base+"/metrics")
	if err != nil {
		return nil, err
	}
	declared := map[string]bool{}
	for _, line := range strings.Split(string(body), "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, _, _ := strings.Cut(rest, " ")
			declared[name] = true
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok || strings.HasPrefix(line, "#") || strings.Contains(name, "{") {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	for _, name := range metricNames {
		if !declared[name] {
			return nil, fmt.Errorf("/metrics no longer exposes %s", name)
		}
		// A declared counter without a sample has never been
		// incremented; that is a real zero.
		if _, ok := out[name]; !ok {
			out[name] = 0
		}
	}

	body, err = get(c, base+"/healthz")
	if err != nil {
		return nil, err
	}
	var health map[string]json.RawMessage
	if err := json.Unmarshal(body, &health); err != nil {
		return nil, fmt.Errorf("/healthz: %w", err)
	}
	for _, k := range []string{"cache_hits", "cache_misses", "resident_vehicles", "total_vehicles", "lazy_load"} {
		raw, ok := health[k]
		if !ok {
			return nil, fmt.Errorf("/healthz no longer reports %s", k)
		}
		var v float64
		switch string(raw) {
		case "true":
			v = 1
		case "false":
			v = 0
		default:
			if v, err = strconv.ParseFloat(string(raw), 64); err != nil {
				return nil, fmt.Errorf("/healthz %s: %w", k, err)
			}
		}
		out["healthz."+k] = v
	}

	if debug == "" {
		return out, nil
	}
	body, err = get(c, debug+"/debug/vars")
	if err != nil {
		return nil, err
	}
	var vars struct {
		Memstats *struct {
			TotalAlloc *uint64
			NumGC      *uint32
		} `json:"memstats"`
	}
	if err := json.Unmarshal(body, &vars); err != nil {
		return nil, fmt.Errorf("/debug/vars: %w", err)
	}
	if vars.Memstats == nil || vars.Memstats.TotalAlloc == nil || vars.Memstats.NumGC == nil {
		return nil, fmt.Errorf("/debug/vars no longer reports memstats TotalAlloc and NumGC")
	}
	out["memstats.TotalAlloc"] = float64(*vars.Memstats.TotalAlloc)
	out["memstats.NumGC"] = float64(*vars.Memstats.NumGC)
	return out, nil
}

func (a counters) delta(b counters, name string) float64 { return b[name] - a[name] }

func get(c *http.Client, url string) ([]byte, error) {
	resp, err := c.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return buf.Bytes(), nil
}
