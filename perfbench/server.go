package main

import (
	"bufio"
	"bytes"
	"context"
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

// server is one specserve process listening on a loopback port.
type server struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:PORT
	log  *os.File
	done chan struct{} // closed once the process has exited
}

// startServer launches specserve with args plus a free loopback -addr
// and returns once /healthz answers. A start that loses the port to
// another process is retried on a fresh one.
func startServer(bin, logPath string, args []string) (*server, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		port, err := freePort()
		if err != nil {
			return nil, err
		}
		s, err := launch(bin, logPath, args, port)
		if err == nil {
			return s, nil
		}
		lastErr = err
	}
	return nil, lastErr
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, fmt.Errorf("pick a loopback port: %w", err)
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

func launch(bin, logPath string, args []string, port int) (*server, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	// The server must not outlive the harness, even when the harness is
	// killed before it can stop it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	s := &server{cmd: cmd, base: "http://" + addr, log: logf, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // exit status is irrelevant: stop decides what a clean end is
		close(s.done)
	}()
	if err := s.waitHealthy(30 * time.Second); err != nil {
		_ = s.stop()
		return nil, fmt.Errorf("%w (log: %s)", err, tail(logPath))
	}
	return s, nil
}

func (s *server) waitHealthy(limit time.Duration) error {
	deadline := time.Now().Add(limit)
	c := &http.Client{Timeout: time.Second}
	for time.Now().Before(deadline) {
		select {
		case <-s.done:
			return errors.New("specserve exited during start-up")
		default:
		}
		resp, err := c.Get(s.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("specserve not healthy after %s", limit)
}

// stop sends SIGTERM (specserve drains and exits), escalates to SIGKILL
// after ten seconds, and returns once the process has exited.
func (s *server) stop() error {
	defer s.log.Close()
	select {
	case <-s.done:
		return nil
	default:
	}
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
		return nil
	case <-time.After(10 * time.Second):
	}
	_ = s.cmd.Process.Kill()
	<-s.done
	return errors.New("specserve ignored SIGTERM for 10s and was killed")
}

// tail returns the last lines of a log file for error messages.
func tail(path string) string {
	data, err := os.ReadFile(path)
	if err != nil {
		return err.Error()
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) > 5 {
		lines = lines[len(lines)-5:]
	}
	return strings.Join(lines, " | ")
}

// newClient returns an HTTP client that keeps one idle connection per
// concurrent caller, so the measured loop never pays for dials.
func newClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			MaxIdleConns:        64,
			MaxIdleConnsPerHost: 64,
			DisableCompression:  true,
			IdleConnTimeout:     time.Minute,
		},
		Timeout: 2 * time.Minute,
	}
}

// response is what one request returned.
type response struct {
	status      int
	etag        string
	traceparent string
	dur         time.Duration // request written to body fully read
}

// do sends one request and reads the whole body into buf (reset first).
func do(ctx context.Context, c *http.Client, method, url, etag string, body []byte, buf *bytes.Buffer) (response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return response{}, err
	}
	if etag != "" {
		req.Header.Set("If-None-Match", etag)
	}
	buf.Reset()
	start := time.Now()
	resp, err := c.Do(req)
	if err != nil {
		return response{}, err
	}
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	dur := time.Since(start)
	if err != nil {
		return response{}, err
	}
	return response{
		status:      resp.StatusCode,
		etag:        resp.Header.Get("ETag"),
		traceparent: resp.Header.Get("Traceparent"),
		dur:         dur,
	}, nil
}

// scrape reads /metrics into series → value, keyed by the series name
// with its labels exactly as exposed (`name{label="v"}`).
func scrape(c *http.Client, base string) (map[string]float64, error) {
	var buf bytes.Buffer
	r, err := do(context.Background(), c, http.MethodGet, base+"/metrics", "", nil, &buf)
	if err != nil {
		return nil, err
	}
	if r.status != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", r.status)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(&buf)
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
