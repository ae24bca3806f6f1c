// Command hlstrace analyzes a trace written by the observability plane —
// a single process's recorder dump or the world-merged file a traced
// hlsworker run leaves behind — and
// prints where each rank's blocked time went and the run's critical
// path.
//
//	hlsworker -hosts ... -trace merged.trace.json   # on every node
//	hlstrace merged.trace.json
//
// Attribution buckets (see internal/obs): late-sender (receiver waited
// for a send that had not happened), late-receiver (rendezvous sender
// waited for the receiver's clear-to-send), directive (HLS directive
// barrier imbalance), wire-stall (cross-process framing/socket time).
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"

	"hls/internal/obs"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("hlstrace: ")
	csvOut := flag.String("csv", "", "also write the per-rank attribution table as CSV here")
	pathLen := flag.Int("path", 12, "critical-path segments to print (0 = none, -1 = all)")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: hlstrace [-csv out.csv] [-path n] trace.json")
		os.Exit(2)
	}

	f, err := os.Open(flag.Arg(0))
	if err != nil {
		log.Fatal(err)
	}
	events, err := obs.ReadTrace(f)
	f.Close()
	if err != nil {
		log.Fatalf("%s: %v", flag.Arg(0), err)
	}
	if len(events) == 0 {
		log.Fatalf("%s: no events", flag.Arg(0))
	}
	a := obs.Analyze(events)

	fmt.Printf("%d events, %.1fms span\n\n", len(events), a.SpanUs/1e3)
	fmt.Printf("%-5s %12s %12s %12s %12s %12s\n",
		"rank", "late-send", "late-recv", "directive", "wire-stall", "total")
	var tot obs.RankWait
	for _, r := range a.Ranks {
		fmt.Printf("%-5d %10.0fus %10.0fus %10.0fus %10.0fus %10.0fus\n",
			r.Rank, r.LateSenderUs, r.LateReceiverUs, r.DirectiveUs, r.WireStallUs, r.TotalUs())
		tot.LateSenderUs += r.LateSenderUs
		tot.LateReceiverUs += r.LateReceiverUs
		tot.DirectiveUs += r.DirectiveUs
		tot.WireStallUs += r.WireStallUs
	}
	fmt.Printf("%-5s %10.0fus %10.0fus %10.0fus %10.0fus %10.0fus\n",
		"all", tot.LateSenderUs, tot.LateReceiverUs, tot.DirectiveUs, tot.WireStallUs, tot.TotalUs())

	if *pathLen != 0 && len(a.Path) > 0 {
		fmt.Printf("\ncritical path: %.0fus compute + %.0fus wait over %d segments\n",
			a.PathComputeUs, a.PathWaitUs, len(a.Path))
		segs := a.Path
		if *pathLen > 0 && len(segs) > *pathLen {
			fmt.Printf("(last %d segments; -path -1 for all)\n", *pathLen)
			segs = segs[len(segs)-*pathLen:]
		}
		for _, s := range segs {
			fmt.Printf("  rank %-3d %9.1fus -> %9.1fus  %-10s %8.1fus\n",
				s.Rank, s.FromUs, s.ToUs, s.Kind, s.ToUs-s.FromUs)
		}
	}

	if *csvOut != "" {
		if err := writeCSV(*csvOut, a); err != nil {
			log.Fatal(err)
		}
		fmt.Println("\nwrote", *csvOut)
	}
}

func writeCSV(path string, a *obs.Analysis) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := csv.NewWriter(f)
	us := func(v float64) string { return strconv.FormatFloat(v, 'f', 1, 64) }
	w.Write([]string{"rank", "late_sender_us", "late_receiver_us", "directive_us", "wire_stall_us", "total_us"}) //nolint:errcheck // surfaced by Flush
	for _, r := range a.Ranks {
		w.Write([]string{strconv.Itoa(r.Rank), us(r.LateSenderUs), us(r.LateReceiverUs), //nolint:errcheck // surfaced by Flush
			us(r.DirectiveUs), us(r.WireStallUs), us(r.TotalUs())})
	}
	w.Flush()
	if err := w.Error(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
