package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"testing"
	"time"

	"obfuscade/internal/serve"
)

// cmdServe boots, writes its bound address, answers a job round trip,
// and drains on the injected stop signal, flushing the manifest file.
func TestCmdServeLifecycle(t *testing.T) {
	dir := t.TempDir()
	addrFile := filepath.Join(dir, "addr")
	manifestOut := filepath.Join(dir, "manifests.ndjson")

	done := make(chan error, 1)
	go func() {
		done <- cmdServe([]string{
			"-addr", "127.0.0.1:0",
			"-addr-file", addrFile,
			"-manifest-out", manifestOut,
			"-drain-timeout", "30s",
		})
	}()

	var addr string
	deadline := time.After(10 * time.Second)
	for addr == "" {
		select {
		case err := <-done:
			t.Fatalf("serve exited early: %v", err)
		case <-deadline:
			t.Fatal("address file never appeared")
		case <-time.After(10 * time.Millisecond):
		}
		if data, err := os.ReadFile(addrFile); err == nil {
			addr = strings.TrimSpace(string(data))
		}
	}

	resp, err := http.Post("http://"+addr+"/jobs?wait=1", "application/json",
		strings.NewReader(`{"seed": 11}`))
	if err != nil {
		t.Fatal(err)
	}
	var st struct {
		State     string `json:"state"`
		Outcome   string `json:"outcome"`
		STLSHA256 string `json:"stl_sha256"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || st.State != "done" || st.Outcome != "miss" {
		t.Fatalf("job round trip: status %d %+v", resp.StatusCode, st)
	}

	serveStop <- os.Interrupt
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve exited with error: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("serve did not drain")
	}

	data, err := os.ReadFile(manifestOut)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if len(lines) != 1 {
		t.Fatalf("manifest lines = %d, want 1:\n%s", len(lines), data)
	}
	var prov map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &prov); err != nil {
		t.Fatalf("manifest line: %v", err)
	}
	if prov["stl_sha256"] != st.STLSHA256 {
		t.Fatal("flushed manifest digest disagrees with the served job")
	}
}

// bootServe starts cmdServe in a goroutine and waits for its address
// file. The returned stop func injects the shutdown signal and waits
// for a clean exit.
func bootServe(t *testing.T, args []string) (addr string, stop func()) {
	t.Helper()
	dir := t.TempDir()
	addrFile := filepath.Join(dir, "addr")
	done := make(chan error, 1)
	go func() {
		done <- cmdServe(append([]string{"-addr", "127.0.0.1:0", "-addr-file", addrFile}, args...))
	}()
	deadline := time.After(10 * time.Second)
	for addr == "" {
		select {
		case err := <-done:
			t.Fatalf("serve exited early: %v", err)
		case <-deadline:
			t.Fatal("address file never appeared")
		case <-time.After(10 * time.Millisecond):
		}
		if data, err := os.ReadFile(addrFile); err == nil {
			addr = strings.TrimSpace(string(data))
		}
	}
	return addr, func() {
		serveStop <- os.Interrupt
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("serve exited with error: %v", err)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("serve did not drain")
		}
	}
}

func submitJob(t *testing.T, addr, body string) (outcome, sha string) {
	t.Helper()
	resp, err := http.Post("http://"+addr+"/jobs?wait=1", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st struct {
		State     string `json:"state"`
		Outcome   string `json:"outcome"`
		STLSHA256 string `json:"stl_sha256"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || st.State != "done" {
		t.Fatalf("job round trip: status %d %+v", resp.StatusCode, st)
	}
	return st.Outcome, st.STLSHA256
}

// TestCmdServeRouterMode drives `serve -route-to`: the CLI becomes a
// consistent-hash router over two in-process shards, a job round trip
// works through it, a resubmission hits the owning shard's cache, and
// the injected stop signal shuts the router down cleanly. The shards
// run via the serve API directly because the CLI's stop channel is
// process-wide — only one cmdServe instance may listen on it at a time.
func TestCmdServeRouterMode(t *testing.T) {
	s1, err := serve.Start(serve.Options{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer s1.Close()
	s2, err := serve.Start(serve.Options{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()

	addr, stop := bootServe(t, []string{
		"-route-to", s1.Addr() + "," + s2.Addr(),
		"-probe-interval", "50ms",
	})
	outcome, sha := submitJob(t, addr, `{"seed": 21}`)
	if outcome != "miss" || sha == "" {
		t.Fatalf("routed job: outcome %q sha %q, want a computed miss", outcome, sha)
	}
	outcome2, sha2 := submitJob(t, addr, `{"seed": 21}`)
	if outcome2 != "hit" || sha2 != sha {
		t.Fatalf("routed rerun: outcome %q sha %q, want hit of %s", outcome2, sha2, sha)
	}

	var health struct {
		Healthy int `json:"healthy"`
	}
	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || health.Healthy != 2 {
		t.Fatalf("router health: status %d healthy %d, want 200 with 2 shards", resp.StatusCode, health.Healthy)
	}
	stop()
}

// A -cache-dir server restarted on the same directory serves the same
// request from disk without re-running the pipeline: the CLI-level
// restart-warm contract.
func TestCmdServeRestartWarmCache(t *testing.T) {
	cacheDir := filepath.Join(t.TempDir(), "cache")
	req := `{"seed": 12, "resolution": "coarse"}`
	args := []string{"-cache-dir", cacheDir, "-max-queue", "8"}

	addr, stop := bootServe(t, args)
	outcome, sha := submitJob(t, addr, req)
	if outcome != "miss" {
		t.Fatalf("cold outcome = %s, want miss", outcome)
	}
	stop()

	addr, stop = bootServe(t, args)
	defer stop()
	outcome2, sha2 := submitJob(t, addr, req)
	if outcome2 != "disk_hit" {
		t.Fatalf("post-restart outcome = %s, want disk_hit", outcome2)
	}
	if sha2 != sha {
		t.Fatalf("digest changed across restart: %s vs %s", sha2, sha)
	}
}

// A SIGTERM sent the moment serve (or the router) announces it is up
// must drain, not kill: the handler is installed before the
// announcement. The server runs in a child copy of this test binary so
// the test can deliver a real signal.
func TestCmdServeSIGTERMRightAfterStart(t *testing.T) {
	if args := os.Getenv("OBFUSCADE_SERVE_CHILD"); args != "" {
		if err := cmdServe(strings.Fields(args)); err != nil {
			fmt.Fprintln(os.Stderr, "child:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	if runtime.GOOS == "windows" {
		t.Skip("no SIGTERM on windows")
	}
	for _, tc := range []struct{ name, args, up, clean string }{
		{"serve", "-addr 127.0.0.1:0", "serve listening on", "serve drained cleanly"},
		{"router", "-addr 127.0.0.1:0 -route-to 127.0.0.1:1", "routing", "router stopped cleanly"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cmd := exec.Command(os.Args[0], "-test.run=^TestCmdServeSIGTERMRightAfterStart$")
			cmd.Env = append(os.Environ(), "OBFUSCADE_SERVE_CHILD="+tc.args)
			stderr, err := cmd.StderrPipe()
			if err != nil {
				t.Fatal(err)
			}
			if err := cmd.Start(); err != nil {
				t.Fatal(err)
			}
			var out strings.Builder
			sc := bufio.NewScanner(stderr)
			for sc.Scan() {
				out.WriteString(sc.Text() + "\n")
				if strings.Contains(sc.Text(), tc.up) {
					if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
						t.Fatal(err)
					}
					break
				}
			}
			rest, _ := io.ReadAll(stderr)
			out.Write(rest)
			if err := cmd.Wait(); err != nil {
				t.Fatalf("child exited with %v:\n%s", err, out.String())
			}
			if !strings.Contains(out.String(), tc.clean) {
				t.Fatalf("child did not report %q:\n%s", tc.clean, out.String())
			}
		})
	}
}
