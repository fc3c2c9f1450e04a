// Command almserve serves trained EM models over HTTP — the deployment
// half of the reusable-model story the paper's §2 motivates. Models are
// unified artifacts written by alem.SaveModel (almatch -mode train),
// held in a versioned registry with zero-downtime hot swap:
//
//	POST /v1/match            two tables in, predicted matching pairs out
//	POST /v1/score            pre-featurized vectors in, scores out (batched)
//	GET  /v1/models           registry listing: versions, active alias
//	POST /v1/models           publish a new version (-admin; ?id=, ?activate=)
//	POST /v1/models/{id}/activate  flip the default alias (-admin)
//	DELETE /v1/models/{id}    retire a version (-admin)
//	GET  /healthz             liveness plus per-model readiness
//	GET  /metrics             Prometheus text: counts, latency, swaps, batching
//
// Start it with a single model, a fleet directory, or empty (publish
// over the admin API later):
//
//	almserve -model model.json -addr :8080
//	almserve -models-dir ./models -admin -addr 127.0.0.1:8080
//
// Concurrent /v1/score requests are coalesced into merged batches by a
// bounded worker pool per model version; SIGTERM/SIGINT drains in-flight
// requests before exit. Admission is layered: an optional per-tenant
// token bucket (-tenant-rate), a queue watermark that rejects overload
// fast, and a circuit breaker per model version — all shed with 429, a
// Retry-After hint and a JSON body naming the reason. A hot swap that
// fails validation never evicts the serving version; /healthz reports
// "degraded" until the next good swap.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"github.com/alem/alem"
)

func main() {
	var (
		modelPath = flag.String("model", "", "model artifact written by alem.SaveModel (published and activated as version v1)")
		modelsDir = flag.String("models-dir", "", "directory of *.json artifacts to load at boot; admin publishes persist here")
		admin     = flag.Bool("admin", false, "mount the mutating registry routes (unauthenticated; bind a private address)")
		addr      = flag.String("addr", "127.0.0.1:8080", "listen address")
		workers   = flag.Int("workers", runtime.GOMAXPROCS(0), "score worker pool size per model version")
		batch     = flag.Int("batch", 256, "max vectors per merged score batch")
		linger    = flag.Duration("linger", 2*time.Millisecond, "batch fill window (0 = no waiting)")
		timeout   = flag.Duration("timeout", 30*time.Second, "per-request deadline")
		drain     = flag.Duration("drain", 15*time.Second, "graceful shutdown drain budget")
		logReq    = flag.Bool("log", false, "stream request/lifecycle events to stderr")
		brkThresh = flag.Int("breaker-threshold", 5, "consecutive model failures that open the circuit breaker")
		brkCool   = flag.Duration("breaker-cooldown", 10*time.Second, "how long the breaker stays open before probing")
		shedMark  = flag.Int("shed-watermark", -1, "shed /v1/score with 429 past this queue depth (-1 = queue depth, 0 = off)")
		tenRate   = flag.Float64("tenant-rate", 0, "per-tenant admitted requests per second (X-Alem-Tenant / ?tenant=; 0 = off)")
		tenBurst  = flag.Int("tenant-burst", 0, "per-tenant burst size (0 = twice the rate)")
		pprofOn   = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ (unauthenticated; bind a private address)")
	)
	flag.Parse()

	opts := serveOpts{
		modelPath: *modelPath, modelsDir: *modelsDir, admin: *admin,
		addr: *addr, workers: *workers, batch: *batch, linger: *linger,
		timeout: *timeout, drain: *drain, logReq: *logReq,
		brkThresh: *brkThresh, brkCool: *brkCool, shedMark: *shedMark,
		tenantRate: *tenRate, tenantBurst: *tenBurst,
		pprof: *pprofOn,
	}
	if err := run(opts); err != nil {
		fmt.Fprintf(os.Stderr, "almserve: %v\n", err)
		os.Exit(1)
	}
}

type serveOpts struct {
	modelPath      string
	modelsDir      string
	admin          bool
	addr           string
	workers, batch int
	linger         time.Duration
	timeout, drain time.Duration
	logReq         bool
	brkThresh      int
	brkCool        time.Duration
	shedMark       int
	tenantRate     float64
	tenantBurst    int
	pprof          bool
}

func run(o serveOpts) error {
	if o.modelPath == "" && o.modelsDir == "" && !o.admin {
		return errors.New("nothing to serve: pass -model, -models-dir, or -admin (publish over POST /v1/models)")
	}

	var obs []alem.Observer
	if o.logReq {
		obs = append(obs, alem.NewEventLog(os.Stderr))
	}
	// The library default leaves watermark shedding off; the CLI turns it
	// on at the queue's own depth so a saturated server answers 429 fast
	// instead of making clients wait out their deadlines in line.
	shed := o.shedMark
	if shed < 0 {
		shed = 4 * o.workers
	}
	// The library reads a zero Linger as "use the default"; a negative
	// one is what turns the window off.
	linger := o.linger
	if linger == 0 {
		linger = -1
	}
	srv := alem.NewMultiModelServer(alem.MatchServerConfig{
		Addr:             o.addr,
		Workers:          o.workers,
		MaxBatch:         o.batch,
		Linger:           linger,
		RequestTimeout:   o.timeout,
		DrainTimeout:     o.drain,
		BreakerThreshold: o.brkThresh,
		BreakerCooldown:  o.brkCool,
		ShedWatermark:    shed,
		TenantRate:       o.tenantRate,
		TenantBurst:      o.tenantBurst,
		EnableAdmin:      o.admin,
		ModelsDir:        o.modelsDir,
		EnablePprof:      o.pprof,
	}, obs...)

	reg := srv.Models()
	if o.modelsDir != "" {
		loaded, err := reg.LoadDir(o.modelsDir)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "almserve: loaded %d model(s) from %s\n", len(loaded), o.modelsDir)
		// Read the degraded flag before Activate: a successful activation
		// clears it, and a skipped corrupt artifact should still be seen.
		if err := reg.LastSwapError(); err != nil {
			fmt.Fprintf(os.Stderr, "almserve: warning: %v (artifact skipped)\n", err)
		}
		if len(loaded) > 0 {
			// LoadDir returns ids in lexical order; the greatest is the
			// newest under v1/v2/... naming and becomes the default alias.
			if _, err := reg.Activate(loaded[len(loaded)-1]); err != nil {
				return err
			}
		}
	}
	if o.modelPath != "" {
		f, err := os.Open(o.modelPath)
		if err != nil {
			return err
		}
		art, err := alem.LoadModel(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("load %s: %w", o.modelPath, err)
		}
		// An explicitly-passed model wins the default alias over anything
		// the fleet directory provided.
		if err := reg.Publish(alem.BootModelVersion, art); err != nil {
			return err
		}
		if _, err := reg.Activate(alem.BootModelVersion); err != nil {
			return err
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	go func() {
		<-srv.Ready()
		if infos := reg.List(); reg.Current() != "" {
			for _, in := range infos {
				if in.Active {
					fmt.Fprintf(os.Stderr, "almserve: %s model %q (dim %d, %d version(s)) listening on %s\n",
						in.Kind, in.ID, in.Dim, len(infos), srv.Addr())
				}
			}
		} else {
			fmt.Fprintf(os.Stderr, "almserve: no active model; listening on %s (publish via POST /v1/models)\n",
				srv.Addr())
		}
	}()
	return srv.ListenAndServe(ctx)
}
