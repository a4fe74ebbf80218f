package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// server is one `obfuscade serve` child process and its cache
// directory.
type server struct {
	cmd    *exec.Cmd
	url    string
	dir    string
	client *http.Client
	exited chan error // the child's exit status, once it has exited
}

// startServer launches `obfuscade serve` on 127.0.0.1:0 with a pool of
// nproc workers over an empty cache directory, and returns once
// /healthz answers.
func startServer(cfg config, client *http.Client) (*server, error) {
	dir, err := os.MkdirTemp(cfg.outDir, "serve-")
	if err != nil {
		return nil, err
	}
	s, err := startOn(cfg, client, dir)
	if err != nil {
		os.RemoveAll(dir)
	}
	return s, err
}

// restart starts a new child on the cache directory of s, which must
// have halted: a service after a restart, with a warm disk tier.
func (s *server) restart(cfg config) (*server, error) {
	return startOn(cfg, s.client, s.dir)
}

// startOn launches the child on dir and waits until it is healthy. It
// never removes dir.
func startOn(cfg config, client *http.Client, dir string) (*server, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	addrFile := filepath.Join(dir, "addr")
	os.Remove(addrFile)
	args := []string{"serve",
		"-addr", "127.0.0.1:0",
		"-addr-file", addrFile,
		"-cache-dir", filepath.Join(dir, "cache"),
		"-workers", strconv.Itoa(cfg.nproc),
	}
	cmd := exec.Command(cfg.obfuscade, args...)
	ready := &readyWriter{ready: make(chan struct{})}
	cmd.Stderr = ready
	// The child must not outlive the benchmark, even if it is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", cfg.obfuscade, err)
	}
	s := &server{cmd: cmd, dir: dir, client: client, exited: make(chan error, 1)}
	go func() { s.exited <- cmd.Wait() }()
	select {
	case <-ready.ready:
	case err := <-s.exited:
		return nil, fmt.Errorf("serve child exited before listening: %v", err)
	case <-time.After(30 * time.Second):
		s.halt()
		return nil, errors.New("serve child did not listen within 30s")
	}
	data, err := os.ReadFile(addrFile)
	if err != nil {
		s.halt()
		return nil, err
	}
	s.url = "http://" + strings.TrimSpace(string(data))
	code, _, err := do(client, http.MethodGet, s.url+"/healthz", nil)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("/healthz answered %d", code)
	}
	if err != nil {
		s.halt()
		return nil, err
	}
	return s, nil
}

// readyWriter takes the child's standard error and closes ready once
// the child reports that it is listening, which it does after writing
// its address file.
type readyWriter struct {
	mu    sync.Mutex
	buf   []byte
	done  bool
	ready chan struct{}
}

func (w *readyWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if !w.done {
		w.buf = append(w.buf, p...)
		if bytes.Contains(w.buf, []byte("serve listening on")) {
			w.done, w.buf = true, nil
			close(w.ready)
		}
	}
	return len(p), nil
}

// peakRSSMB reads the child's peak resident set size.
func (s *server) peakRSSMB() float64 {
	return peakRSSMB(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
}

// stop halts the child and removes its directory.
func (s *server) stop() error {
	defer os.RemoveAll(s.dir)
	return s.halt()
}

// halt drains the child with SIGTERM (SIGKILL after 30 s) and waits for
// it to exit, keeping its cache directory. The child reports that it
// listens just before it installs its SIGTERM handler, so a child
// stopped right after it started can die of the signal instead of
// draining. It has nothing to drain then, so that exit counts as a stop.
func (s *server) halt() error {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		s.cmd.Process.Kill()
	}
	select {
	case err := <-s.exited:
		var exit *exec.ExitError
		if errors.As(err, &exit) {
			if ws, ok := exit.Sys().(syscall.WaitStatus); ok && ws.Signaled() && ws.Signal() == syscall.SIGTERM {
				return nil
			}
		}
		return err
	case <-time.After(30 * time.Second):
		s.cmd.Process.Kill()
		<-s.exited
		return errors.New("serve child did not drain within 30s")
	}
}

// metrics fetches the child's counters and gauges from /metrics.json.
func (s *server) metrics() (map[string]int64, error) {
	resp, err := s.client.Get(s.url + "/metrics.json")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var snap struct {
		Counters []struct {
			Name  string `json:"name"`
			Value int64  `json:"value"`
		} `json:"counters"`
		Gauges []struct {
			Name  string `json:"name"`
			Value int64  `json:"value"`
		} `json:"gauges"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return nil, fmt.Errorf("decoding /metrics.json: %w", err)
	}
	m := map[string]int64{}
	for _, c := range snap.Counters {
		m[c.Name] = c.Value
	}
	for _, g := range snap.Gauges {
		m[g.Name] = g.Value
	}
	return m, nil
}

// selfPeakRSSMB is the benchmark process's own peak resident set size.
func selfPeakRSSMB() float64 { return peakRSSMB("/proc/self/status") }

// resetSelfPeakRSS restarts the benchmark process's peak RSS.
func resetSelfPeakRSS() { os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) }

// peakRSSMB parses VmHWM from a /proc status file; 0 when unavailable.
func peakRSSMB(statusPath string) float64 {
	f, err := os.Open(statusPath)
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) >= 2 {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}
