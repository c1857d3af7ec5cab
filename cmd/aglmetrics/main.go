// Command aglmetrics reads an aglserve flight-recorder file (written when
// the server runs with -flight) and prints it for post-hoc incident
// diagnosis — no logs, no live server needed.
//
//	aglmetrics -i flight.aglfr                 # summary + per-sample table
//	aglmetrics -i flight.aglfr -json | tail    # one JSON object per sample
//
// The file is a fixed-size binary ring of per-interval counter samples
// (queue depth, batch occupancy, shed/expired counts, warm/cold latency
// percentiles, dirty store rows); see internal/serve/ring.go for the
// layout. Reading a file while the server is still writing it is safe.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"agl/internal/serve"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("aglmetrics: ")

	input := flag.String("i", "", "flight-recorder file written by aglserve -flight")
	asJSON := flag.Bool("json", false, "emit one JSON object per sample instead of the table")
	flag.Parse()

	if *input == "" {
		flag.Usage()
		os.Exit(2)
	}
	samples, err := serve.ReadFlightFile(*input)
	if err != nil {
		log.Fatal(err)
	}
	if len(samples) == 0 {
		log.Fatal("flight file holds no samples yet")
	}

	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		for i := range samples {
			if err := enc.Encode(&samples[i]); err != nil {
				log.Fatal(err)
			}
		}
		return
	}

	first := time.Unix(0, samples[0].UnixNanos)
	lastT := time.Unix(0, samples[len(samples)-1].UnixNanos)
	var reqs, shed, expired, errs uint64
	var hbMissed, failovers, pRetries, bOpens uint64
	var maxQueue, worstCold uint32
	for _, s := range samples {
		reqs += uint64(s.Requests)
		shed += uint64(s.Shed)
		expired += uint64(s.Expired)
		errs += uint64(s.Errors)
		hbMissed += uint64(s.HeartbeatsMissed)
		failovers += uint64(s.Failovers)
		pRetries += uint64(s.ProxiedRetries)
		bOpens += uint64(s.BreakerOpens)
		if s.QueueDepth > maxQueue {
			maxQueue = s.QueueDepth
		}
		if s.ColdP99us > worstCold {
			worstCold = s.ColdP99us
		}
	}
	fmt.Printf("flight %s: %d samples, %s .. %s (%s)\n",
		*input, len(samples),
		first.Format(time.RFC3339), lastT.Format(time.RFC3339),
		lastT.Sub(first).Round(time.Second))
	fmt.Printf("totals: %d requests, %d shed, %d expired, %d errors; max queue %d, worst cold p99 %s\n",
		reqs, shed, expired, errs, maxQueue,
		time.Duration(worstCold)*time.Microsecond)
	// Cluster-health counters are zero outside cluster mode; show the
	// columns only when something happened.
	cluster := hbMissed+failovers+pRetries+bOpens > 0
	if cluster {
		fmt.Printf("cluster: %d heartbeats missed, %d failovers, %d proxied retries, %d breaker opens\n",
			hbMissed, failovers, pRetries, bOpens)
	}
	fmt.Println()

	fmt.Printf("%-8s %5s %5s %6s %5s %5s %5s %5s %5s %4s %9s %9s %9s %9s %5s",
		"time", "queue", "batch", "reqs", "hits", "warm", "cold", "shed", "expd", "errs",
		"warm_p50", "warm_p99", "cold_p50", "cold_p99", "dirty")
	if cluster {
		fmt.Printf(" %6s %5s %6s %5s", "hbmiss", "fails", "retry", "brkr")
	}
	fmt.Println()
	for _, s := range samples {
		t := time.Unix(0, s.UnixNanos)
		fmt.Printf("%-8s %5d %5d %6d %5d %5d %5d %5d %5d %4d %9s %9s %9s %9s %5d",
			t.Format("15:04:05"),
			s.QueueDepth, s.BatchMax, s.Requests, s.CacheHits, s.Warm, s.Cold,
			s.Shed, s.Expired, s.Errors,
			us(s.WarmP50us), us(s.WarmP99us), us(s.ColdP50us), us(s.ColdP99us),
			s.DirtyRows)
		if cluster {
			fmt.Printf(" %6d %5d %6d %5d",
				s.HeartbeatsMissed, s.Failovers, s.ProxiedRetries, s.BreakerOpens)
		}
		fmt.Println()
	}
}

// us renders a microsecond value compactly ("-" for no observations).
func us(v uint32) string {
	if v == 0 {
		return "-"
	}
	return (time.Duration(v) * time.Microsecond).String()
}
