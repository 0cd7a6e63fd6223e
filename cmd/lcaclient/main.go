// Command lcaclient queries one or more LCA replica servers and
// reports their answers side by side — the consistency of Definition
// 2.3 observed from the outside.
//
// Usage:
//
//	lcaclient -replicas 127.0.0.1:7071,127.0.0.1:7072 -items 3,17,256
//	lcaclient -replicas 127.0.0.1:7071 -random 20 -n 100000
//
// A lcagateway address works anywhere a replica address does — the
// gateway speaks the same wire protocol — so a single -replicas entry
// pointing at a gateway queries the whole fleet behind it with
// failover and caching:
//
//	lcaclient -replicas 127.0.0.1:7080 -random 20 -n 100000
//
// Against a multi-tenant replica or gateway, -tenant selects which
// solution C(I, r) answers (untagged queries land on the server's
// default tenant) and -api-key authenticates when the gateway requires
// it:
//
//	lcaclient -replicas 127.0.0.1:7080 -tenant 3:9 -api-key alpha-secret -items 3,17
//
// Every query names an epoch. -epoch pins it to one sealed instance
// version, and each answer prints the epoch served ("current" asks the
// server to serve whatever it has sealed last and report which);
// without the flag, queries are served at the current epoch and print
// the plain answer:
//
//	lcaclient -replicas 127.0.0.1:7080 -items 3,17 -epoch 2
//	lcaclient -replicas 127.0.0.1:7080 -items 3,17 -epoch current
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"lcakp/internal/cluster"
	"lcakp/internal/engine"
	"lcakp/internal/rng"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes the CLI and returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet("lcaclient", flag.ContinueOnError)
	flags.SetOutput(stderr)
	var (
		replicas = flags.String("replicas", "127.0.0.1:7071", "comma-separated replica addresses")
		items    = flags.String("items", "", "comma-separated item indices to query")
		random   = flags.Int("random", 0, "query this many random indices instead")
		n        = flags.Int("n", 0, "instance size (required with -random)")
		seed     = flags.Uint64("seed", 1, "randomness for -random")
		timeout  = flags.Duration("timeout", 0, "per-request deadline; a slow replica yields a deadline error instead of a hang (0 = connection default)")
		scrape   = flags.Bool("scrape", false, "fetch each replica's metrics over the wire protocol and print the expositions (usable without a query list)")
		tenantID = flags.String("tenant", "", `tenant to query as "<instance-hash>:<seed>" (empty = the server's default tenant)`)
		apiKey   = flags.String("api-key", "", "API key sent with every request (for gateways running with -api-keys)")
		epochStr = flags.String("epoch", "", `pin queries to this instance version: a sealed epoch number, or "current" to serve-and-report the server's latest (empty = serve at the current epoch without reporting it)`)
	)
	if err := flags.Parse(args); err != nil {
		return 2
	}

	tenant, err := parseTenant(*tenantID)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	epochPin, err := parseEpoch(*epochStr)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	indices, err := parseIndices(*items, *random, *n, *seed)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if len(indices) == 0 && !*scrape {
		fmt.Fprintln(stderr, "nothing to query: pass -items or -random with -n (or -scrape)")
		return 2
	}

	addrs := strings.Split(*replicas, ",")
	clients := make([]*cluster.LCAClient, 0, len(addrs))
	defer func() {
		for _, c := range clients {
			_ = c.Close()
		}
	}()
	for _, addr := range addrs {
		client, err := cluster.DialLCA(strings.TrimSpace(addr), 0)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		if tenant != nil {
			client.SetTenant(*tenant)
		}
		if *apiKey != "" {
			client.SetAPIKey(*apiKey)
		}
		clients = append(clients, client)
	}

	if len(indices) > 0 {
		fmt.Fprintf(stdout, "%-10s", "item")
		for _, c := range clients {
			fmt.Fprintf(stdout, "  %-22s", c.Addr())
		}
		fmt.Fprintf(stdout, "  %s\n", "agree?")

		disagreements := 0
		for _, i := range indices {
			fmt.Fprintf(stdout, "%-10d", i)
			answers := make([]bool, len(clients))
			for ci, c := range clients {
				in, served, err := querySolution(c, i, epochPin, *timeout)
				if err != nil {
					fmt.Fprintln(stderr, err)
					return 1
				}
				answers[ci] = in
				if epochPin != nil {
					fmt.Fprintf(stdout, "  %-22s", fmt.Sprintf("%v @e%d", in, uint64(served)))
				} else {
					fmt.Fprintf(stdout, "  %-22v", in)
				}
			}
			agree := true
			for _, a := range answers {
				if a != answers[0] {
					agree = false
				}
			}
			if !agree {
				disagreements++
			}
			fmt.Fprintf(stdout, "  %v\n", agree)
		}
		fmt.Fprintf(stdout, "\n%d/%d queries unanimous across %d replicas\n",
			len(indices)-disagreements, len(indices), len(clients))
	}
	if *scrape {
		// Scraping rides the query connection — the metrics reflect any
		// queries made just above. With -tenant, the scrape narrows to
		// that tenant's engine counters.
		for _, c := range clients {
			var text string
			var err error
			if tenant != nil {
				text, err = c.ScrapeTenantMetrics(context.Background(), *tenant)
			} else {
				text, err = c.ScrapeMetrics(context.Background())
			}
			if err != nil {
				fmt.Fprintf(stderr, "scrape %s: %v\n", c.Addr(), err)
				return 1
			}
			fmt.Fprintf(stdout, "# metrics from %s\n%s", c.Addr(), text)
		}
	}
	return 0
}

// querySolution performs one membership RPC under a per-request
// deadline (0 leaves the connection's default timeout in charge). With
// an epoch pin it returns the epoch the server served; without one the
// query is served at the current epoch and reports epoch 0.
func querySolution(c *cluster.LCAClient, i int, epochPin *engine.EpochID, timeout time.Duration) (bool, engine.EpochID, error) {
	ctx := context.Background()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	if epochPin != nil {
		return c.InSolutionEpoch(ctx, *epochPin, i)
	}
	in, err := c.InSolution(ctx, i)
	return in, 0, err
}

// parseEpoch parses the -epoch flag: "" means no pin (nil), "current"
// pins the serve-current sentinel, anything else must be a concrete
// epoch number.
func parseEpoch(s string) (*engine.EpochID, error) {
	if s == "" {
		return nil, nil
	}
	if s == "current" {
		ep := engine.EpochCurrent
		return &ep, nil
	}
	v, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		return nil, fmt.Errorf(`bad -epoch %q: want a number or "current"`, s)
	}
	ep := engine.EpochID(v)
	return &ep, nil
}

// parseTenant parses the -tenant flag ("<instance-hash>:<seed>"), with
// "" meaning the server's default tenant (nil).
func parseTenant(s string) (*engine.TenantID, error) {
	if s == "" {
		return nil, nil
	}
	instPart, seedPart, ok := strings.Cut(s, ":")
	if !ok {
		return nil, fmt.Errorf(`bad -tenant %q: want "<instance-hash>:<seed>"`, s)
	}
	inst, err := strconv.ParseUint(instPart, 10, 64)
	if err != nil {
		return nil, fmt.Errorf("bad -tenant instance hash %q: %w", instPart, err)
	}
	sd, err := strconv.ParseUint(seedPart, 10, 64)
	if err != nil {
		return nil, fmt.Errorf("bad -tenant seed %q: %w", seedPart, err)
	}
	return &engine.TenantID{Instance: inst, Seed: sd}, nil
}

// parseIndices builds the query list from -items or -random.
func parseIndices(items string, random, n int, seed uint64) ([]int, error) {
	if items != "" {
		var out []int
		for _, part := range strings.Split(items, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil {
				return nil, fmt.Errorf("bad item index %q: %w", part, err)
			}
			out = append(out, v)
		}
		return out, nil
	}
	if random > 0 {
		if n <= 0 {
			return nil, fmt.Errorf("-random requires -n (instance size)")
		}
		src := rng.New(seed).Derive("lcaclient")
		out := make([]int, random)
		for i := range out {
			out[i] = src.Intn(n)
		}
		return out, nil
	}
	return nil, nil
}
