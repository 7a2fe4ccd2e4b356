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
	"net/http/httputil"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cpuTimes is the CPU time, in seconds, charged to crcserve and to this
// process. The kernel charges a process only for time it ran: time the
// hypervisor took from the guest (steal) is accounted apart.
type cpuTimes struct{ server, self float64 }

// clockTicks is the unit of the times in /proc/<pid>/stat (USER_HZ,
// which Linux fixes at 100 for user space).
const clockTicks = 100

func readCPU(pid int) (cpuTimes, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return cpuTimes{}, err
	}
	server, err := statCPU(b)
	if err != nil {
		return cpuTimes{}, fmt.Errorf("/proc/%d/stat: %w", pid, err)
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return cpuTimes{}, err
	}
	self := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return cpuTimes{server: server, self: self.Seconds()}, nil
}

// statCPU returns utime+stime, in seconds, from a /proc/<pid>/stat line.
// The fields after the command name, which is in parentheses and may
// hold spaces and parentheses, start with the state (field 3); utime
// and stime are fields 14 and 15.
func statCPU(b []byte) (float64, error) {
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, errors.New("no command name")
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, errors.New("too few fields")
	}
	var ticks float64
	for _, s := range f[11:13] {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return 0, err
		}
		ticks += float64(v)
	}
	return ticks / clockTicks, nil
}

// sampleWindows reads the CPU times at start and at the end of each of
// n windows of windowLen, sleeping in between.
func sampleWindows(pid int, start time.Time, n int) ([]cpuTimes, error) {
	out := make([]cpuTimes, n+1)
	for k := range out {
		time.Sleep(time.Until(start.Add(time.Duration(k) * windowLen)))
		t, err := readCPU(pid)
		if err != nil {
			return nil, err
		}
		out[k] = t
	}
	return out, nil
}

// server is one crcserve child process on a loopback port.
type server struct {
	cmd   *exec.Cmd
	url   string
	ready time.Duration // exec to first healthy /healthz
	http  *http.Client
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startServer runs crcserve with args (plus -addr) and waits until
// /healthz answers, logging the child's output to logPath.
func startServer(bin, logPath string, args ...string) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start crcserve: %w", err)
	}
	s := &server{cmd: cmd, url: "http://" + addr, http: &http.Client{Timeout: 30 * time.Second}}
	for deadline := t0.Add(30 * time.Second); ; {
		resp, err := s.http.Get(s.url + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				s.ready = time.Since(t0)
				return s, nil
			}
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("crcserve on %s not healthy after 30s (see %s)", addr, logPath)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop interrupts the server, lets it drain (which flushes the corpus),
// waits for it to exit and returns its peak resident set in MiB.
func (s *server) stop() (float64, error) {
	s.http.CloseIdleConnections()
	_ = s.cmd.Process.Signal(os.Interrupt) // an already-exited child is reported by Wait
	done := make(chan error, 1)
	go func() { done <- s.cmd.Wait() }()
	var err error
	select {
	case err = <-done:
	case <-time.After(30 * time.Second):
		_ = s.cmd.Process.Kill() // Wait below reports the outcome
		<-done
		err = errors.New("crcserve did not exit within 30s of SIGINT")
	}
	var rss float64
	if st := s.cmd.ProcessState; st != nil {
		if ru, ok := st.SysUsage().(*syscall.Rusage); ok {
			rss = float64(ru.Maxrss) / 1024 // Linux reports KiB
		}
	}
	var exitErr *exec.ExitError
	if errors.As(err, &exitErr) {
		err = fmt.Errorf("crcserve exited: %w", err)
	}
	return rss, err
}

func (s *server) getJSON(ctx context.Context, path string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.url+path, nil)
	if err != nil {
		return err
	}
	resp, err := s.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// metricsDoc is the part of crcserve's JSON /metrics document read here.
type metricsDoc struct {
	Pool struct {
		Hits      int64 `json:"hits"`
		Misses    int64 `json:"misses"`
		Evictions int64 `json:"evictions"`
		Probes    int64 `json:"probes"`
	} `json:"pool"`
	Flights   int64 `json:"flights"`
	Coalesced int64 `json:"coalesced"`
	Canceled  int64 `json:"canceled"`
	Corpus    struct {
		Appends     int64 `json:"appends"`
		Compactions int64 `json:"compactions"`
		Bytes       int64 `json:"bytes"`
		Hits        int64 `json:"hits"`
		Misses      int64 `json:"misses"`
	} `json:"corpus"`
}

// prom scrapes the Prometheus exposition into series -> value, where a
// series is the metric name with its label set as printed.
func (s *server) prom(ctx context.Context) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.url+"/metrics?format=prometheus", nil)
	if err != nil {
		return nil, err
	}
	resp, err := s.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return parseProm(resp.Body)
}

func parseProm(r io.Reader) (map[string]float64, error) {
	out := map[string]float64{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
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
	return out, sc.Err()
}

// meanOf returns sum/count of a Prometheus histogram series, or 0 when it
// has no observations.
func meanOf(p map[string]float64, name, labels string) float64 {
	n := p[name+"_count"+labels]
	if n == 0 {
		return 0
	}
	return p[name+"_sum"+labels] / n
}

// pullTrace fetches one retained request trace and records its spans
// under parent. A trace the recorder has already evicted is skipped.
func (s *server) pullTrace(ctx context.Context, tr *Tracer, parent int64, req, traceID string) error {
	var doc struct {
		Root traceNode `json:"root"`
	}
	err := s.getJSON(ctx, "/v1/traces/"+traceID, &doc)
	if err != nil {
		return err
	}
	nodes, parents := flattenTrace(tr, doc.Root)
	tr.AddTree(parent, req, nodes, parents)
	return nil
}

// conn is one closed-loop caller's keep-alive HTTP/1.1 connection. It
// writes prepared requests and parses responses itself: a load
// generator that spends little CPU per request leaves the two CPUs to
// the server under test, where net/http's client cost about four times
// the server's own time per small request.
type conn struct {
	c    net.Conn
	r    *bufio.Reader
	host string
	hdr  []byte
}

func dial(s *server) (*conn, error) {
	host := strings.TrimPrefix(s.url, "http://")
	c, err := net.Dial("tcp", host)
	if err != nil {
		return nil, err
	}
	return &conn{c: c, r: bufio.NewReaderSize(c, 64<<10), host: host}, nil
}

func (c *conn) close() { c.c.Close() }

// response is one parsed answer.
type response struct {
	status  int
	traceID string
	body    []byte
}

// post sends one request and reads its response.
func (c *conn) post(path, ctype string, body []byte) (response, error) {
	c.hdr = append(c.hdr[:0], "POST "...)
	c.hdr = append(c.hdr, path...)
	c.hdr = append(c.hdr, " HTTP/1.1\r\nHost: "...)
	c.hdr = append(c.hdr, c.host...)
	c.hdr = append(c.hdr, "\r\nContent-Type: "...)
	c.hdr = append(c.hdr, ctype...)
	c.hdr = append(c.hdr, "\r\nContent-Length: "...)
	c.hdr = strconv.AppendInt(c.hdr, int64(len(body)), 10)
	c.hdr = append(c.hdr, "\r\n\r\n"...)
	bufs := net.Buffers{c.hdr, body}
	if _, err := bufs.WriteTo(c.c); err != nil {
		return response{}, err
	}
	return c.read()
}

func (c *conn) read() (response, error) {
	var resp response
	line, err := c.r.ReadSlice('\n')
	if err != nil {
		return resp, err
	}
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.1 ")) {
		return resp, fmt.Errorf("malformed status line %q", line)
	}
	if resp.status, err = strconv.Atoi(string(line[9:12])); err != nil {
		return resp, fmt.Errorf("malformed status line %q", line)
	}
	length, chunked := -1, false
	for {
		line, err := c.r.ReadSlice('\n')
		if err != nil {
			return resp, err
		}
		line = bytes.TrimRight(line, "\r\n")
		if len(line) == 0 {
			break
		}
		k, v, ok := bytes.Cut(line, []byte(":"))
		if !ok {
			continue
		}
		v = bytes.TrimSpace(v)
		switch {
		case bytes.EqualFold(k, []byte("Content-Length")):
			if length, err = strconv.Atoi(string(v)); err != nil {
				return resp, fmt.Errorf("bad Content-Length %q", v)
			}
		case bytes.EqualFold(k, []byte("X-Trace-ID")):
			resp.traceID = string(v)
		case bytes.EqualFold(k, []byte("Transfer-Encoding")):
			chunked = bytes.EqualFold(v, []byte("chunked"))
		}
	}
	switch {
	case chunked:
		// net/http chunks bodies larger than its response buffer.
		resp.body, err = io.ReadAll(httputil.NewChunkedReader(c.r))
		if err == nil {
			_, err = c.r.Discard(2) // the CRLF after the last chunk
		}
	case length >= 0:
		resp.body = make([]byte, length)
		_, err = io.ReadFull(c.r, resp.body)
	default:
		err = errors.New("response without Content-Length")
	}
	return resp, err
}
