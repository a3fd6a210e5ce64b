// Command archloadgen drives synthetic traffic against a running
// archlined daemon and reports throughput, response classification, and
// latency quantiles. It is the repo's committed load harness: CI boots a
// daemon, runs a short archloadgen pass, and gates the build on the
// budget file (scripts/load_budget.json), so a latency regression fails
// the same way a broken test does.
//
// Usage:
//
//	archloadgen -base http://127.0.0.1:8080 [-duration 5s] [-workers 4]
//	            [-rate 0] [-seed 42] [-mix query=45,roofline=15,...]
//	            [-max-requests 0] [-timeout 5s]
//	            [-json] [-budget file.json] [-check-metrics]
//
// The mix names weights for: query, roofline, compare, whatif, batch,
// platforms, fit, upload (unnamed ops keep their default; fit and
// upload default to 0 — fit jobs cost daemon CPU for seconds, and
// uploads need a daemon running with -data-dir). -rate 0 is closed-loop
// (workers go as fast as the daemon allows); -rate N paces an open loop
// at N req/s. The request stream is deterministic under -seed.
//
// With -budget, the report is checked against the file's limits
// (max_p99_ms, min_rps, max_server_errors, max_transport_errors) and
// violations exit 1. With -check-metrics, /metrics is scraped after the
// run and the daemon's accounting contract is enforced too: per-platform
// counters present, and the latency histogram's sample count equal to
// the request count.
//
// Exit status: 0 in budget, 1 budget violation or failed run, 2 usage.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"archline/internal/loadgen"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("archloadgen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		base     = fs.String("base", "", "archlined base URL (required)")
		duration = fs.Duration("duration", 5*time.Second, "how long to generate load")
		workers  = fs.Int("workers", 4, "closed-loop concurrency")
		rate     = fs.Float64("rate", 0, "open-loop request rate per second (0 = closed loop)")
		seed     = fs.Uint64("seed", 42, "request-stream seed (same seed, same stream)")
		mixFlag  = fs.String("mix", "", "op weights, e.g. query=45,roofline=15 (unnamed ops keep defaults)")
		maxReqs  = fs.Int("max-requests", 0, "stop after this many requests (0 = duration-bound)")
		timeout  = fs.Duration("timeout", 5*time.Second, "per-request timeout")
		asJSON   = fs.Bool("json", false, "write the report as JSON to stdout (table goes to stderr)")
		budgetF  = fs.String("budget", "", "budget file to enforce; violations exit 1")
		checkMet = fs.Bool("check-metrics", false, "scrape /metrics after the run and enforce the accounting contract")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *base == "" || fs.NArg() != 0 {
		fs.Usage()
		return 2
	}
	mix, err := loadgen.ParseMix(*mixFlag)
	if err != nil {
		_, _ = fmt.Fprintln(stderr, "archloadgen:", err)
		return 2
	}
	var budget loadgen.Budget
	if *budgetF != "" {
		raw, err := os.ReadFile(*budgetF)
		if err != nil {
			_, _ = fmt.Fprintln(stderr, "archloadgen:", err)
			return 2
		}
		if err := json.Unmarshal(raw, &budget); err != nil {
			_, _ = fmt.Fprintf(stderr, "archloadgen: budget %s: %v\n", *budgetF, err)
			return 2
		}
	}

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	rep, err := loadgen.Run(ctx, loadgen.Config{
		BaseURL:     *base,
		Duration:    *duration,
		Workers:     *workers,
		Rate:        *rate,
		Seed:        *seed,
		Mix:         mix,
		Timeout:     *timeout,
		MaxRequests: *maxReqs,
	})
	if err != nil {
		_, _ = fmt.Fprintln(stderr, "archloadgen:", err)
		return 1
	}
	if *asJSON {
		rep.Render(stderr)
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			_, _ = fmt.Fprintln(stderr, "archloadgen: encoding report:", err)
			return 1
		}
	} else {
		rep.Render(stdout)
	}

	violations := []string{}
	if *budgetF != "" {
		violations = append(violations, budget.Check(rep)...)
	}
	if *checkMet {
		v, err := checkMetrics(*base+"/metrics", budget)
		if err != nil {
			_, _ = fmt.Fprintln(stderr, "archloadgen: scraping /metrics:", err)
			return 1
		}
		violations = append(violations, v...)
	}
	if len(violations) > 0 {
		for _, v := range violations {
			_, _ = fmt.Fprintln(stderr, "archloadgen: BUDGET VIOLATION:", v)
		}
		return 1
	}
	if *budgetF != "" || *checkMet {
		_, _ = fmt.Fprintln(stderr, "archloadgen: within budget")
	}
	return 0
}

// checkMetrics scrapes /metrics and applies budget.CheckMetrics,
// re-scraping for up to two seconds while it fails: a request the run's
// deadline abandoned mid-flight can finish on the daemon between the
// histogram and the counter of one render, which skews that scrape
// only, whereas a lost sample fails every scrape.
func checkMetrics(url string, budget loadgen.Budget) ([]string, error) {
	deadline := time.Now().Add(2 * time.Second)
	for {
		exp, err := scrape(url)
		if err != nil {
			return nil, err
		}
		v := budget.CheckMetrics(exp)
		if len(v) == 0 || time.Now().After(deadline) {
			return v, nil
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// scrape fetches a text exposition.
func scrape(url string) (string, error) {
	client := &http.Client{Timeout: 10 * time.Second}
	resp, err := client.Get(url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	return string(body), nil
}
