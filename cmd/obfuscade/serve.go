package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"obfuscade/internal/serve"
	"obfuscade/internal/shard"
)

// serveStop receives the shutdown signal. A package variable so the
// tests can stop a server without sending a real signal to the test
// process.
var serveStop = make(chan os.Signal, 1)

func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:8080", "listen address (use :0 for a random port)")
	cacheBytes := fs.Int64("cache-bytes", 256<<20, "result cache budget in bytes (0 = unbounded)")
	cacheDir := fs.String("cache-dir", "", "persist results to this directory so they survive restarts (empty = memory only)")
	cacheDiskBytes := fs.Int64("cache-disk-bytes", 4<<30, "disk cache budget in bytes when -cache-dir is set (0 = unbounded)")
	maxQueue := fs.Int("max-queue", 0, "shed new submissions (429) past this many in-flight jobs (0 = unbounded)")
	jobTimeout := fs.Duration("job-timeout", 2*time.Minute, "default per-job pipeline deadline (0 = none)")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for in-flight jobs")
	manifestOut := fs.String("manifest-out", "", "write provenance manifests (NDJSON) to this file on shutdown")
	accessLog := fs.String("access-log", "", "write one NDJSON access-log line per request to this file ('-' = stderr)")
	addrFile := fs.String("addr-file", "", "write the bound listen address to this file once serving")
	routeTo := fs.String("route-to", "", "run as a router over these comma-separated shard addresses instead of serving jobs locally")
	vnodes := fs.Int("vnodes", 0, "router: virtual nodes per shard on the consistent-hash ring (0 = default)")
	hedgeAfter := fs.Duration("hedge-after", 0, "router: hedge slow reads against the next ring replica after this budget (0 = default, negative = disabled)")
	probeInterval := fs.Duration("probe-interval", 0, "router: shard /healthz polling period (0 = default)")
	setWorkers := workersFlag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	setWorkers()

	accessW, accessFile, err := openAccessLog(*accessLog)
	if err != nil {
		return err
	}
	if accessFile != nil {
		defer accessFile.Close()
	}

	if *routeTo != "" {
		return runRouter(*routeTo, *addr, *addrFile, *vnodes, *hedgeAfter, *probeInterval, *drainTimeout, accessW)
	}

	opts := serve.Options{
		Addr:           *addr,
		CacheBytes:     *cacheBytes,
		CacheDir:       *cacheDir,
		DiskCacheBytes: *cacheDiskBytes,
		MaxQueue:       *maxQueue,
		JobTimeout:     *jobTimeout,
		AccessLog:      accessW,
	}
	var manifestFile *os.File
	if *manifestOut != "" {
		f, err := os.Create(*manifestOut)
		if err != nil {
			return err
		}
		manifestFile = f
		opts.ManifestOut = f
	}
	// Install the shutdown handler before the server starts, so a signal
	// sent as soon as "listening" is announced drains instead of killing.
	signal.Notify(serveStop, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(serveStop)
	s, err := serve.Start(opts)
	if err != nil {
		return err
	}
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(s.Addr()+"\n"), 0o644); err != nil {
			s.Close()
			return err
		}
	}
	fmt.Fprintln(os.Stderr, "obfuscade: serve listening on", s.URL())

	sig := <-serveStop
	fmt.Fprintf(os.Stderr, "obfuscade: %v received, draining\n", sig)

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	err = s.Shutdown(ctx)
	if manifestFile != nil {
		if cerr := manifestFile.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, "obfuscade: serve drained cleanly")
	return nil
}

// openAccessLog resolves the -access-log flag: "" disables logging,
// "-" targets stderr, anything else creates (or truncates) the file.
// The *os.File is non-nil only when the caller must close it.
func openAccessLog(path string) (io.Writer, *os.File, error) {
	switch path {
	case "":
		return nil, nil, nil
	case "-":
		return os.Stderr, nil, nil
	default:
		f, err := os.Create(path)
		if err != nil {
			return nil, nil, err
		}
		return f, f, nil
	}
}

// runRouter is `obfuscade serve -route-to=...`: a thin consistent-hash
// router over N shard instances. It runs no pipeline and owns no cache;
// it places every job key on its owning shard, splits batches per
// shard, hedges slow reads, and ejects unhealthy shards off the ring.
func runRouter(routeTo, addr, addrFile string, vnodes int, hedgeAfter, probeInterval, drainTimeout time.Duration, accessLog io.Writer) error {
	var shards []string
	for _, s := range strings.Split(routeTo, ",") {
		if s = strings.TrimSpace(s); s != "" {
			shards = append(shards, s)
		}
	}
	signal.Notify(serveStop, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(serveStop)
	rt, err := shard.StartRouter(shard.RouterOptions{
		Addr:          addr,
		Shards:        shards,
		VirtualNodes:  vnodes,
		HedgeAfter:    hedgeAfter,
		ProbeInterval: probeInterval,
		AccessLog:     accessLog,
	})
	if err != nil {
		return err
	}
	if addrFile != "" {
		if err := os.WriteFile(addrFile, []byte(rt.Addr()+"\n"), 0o644); err != nil {
			rt.Close()
			return err
		}
	}
	fmt.Fprintf(os.Stderr, "obfuscade: routing %s across %d shards\n", rt.URL(), len(shards))

	sig := <-serveStop
	fmt.Fprintf(os.Stderr, "obfuscade: %v received, stopping router\n", sig)

	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := rt.Shutdown(ctx); err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, "obfuscade: router stopped cleanly")
	return nil
}
