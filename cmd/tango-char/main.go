// Command tango-char regenerates one table or figure of the paper's
// evaluation section — or, with -exp all, the complete experiment matrix — or
// runs a multi-device characterization sweep across the registered
// accelerator targets.  Layer traces and simulation runs are shared across
// experiments through the characterization pipeline's store, so each
// (network, target, configuration) cell is computed once per process, and
// once per cache directory when one is given.
//
// Usage:
//
//	tango-char -exp fig2                 # L1D sensitivity sweep (Figure 2)
//	tango-char -exp table3 -format csv   # launch geometry as CSV
//	tango-char -exp fig6 -networks CifarNet
//	tango-char -exp all -fast            # every experiment in paper order
//	tango-char -exp all -out results/    # plus one .txt and .csv file each
//	tango-char -targets gp102,tx1,pynq -fast            # multi-device sweep
//	tango-char -targets gp102 -l1 0,64,256 -format json # L1 sweep as JSON
//	tango-char -targets gp102 -cache-dir ~/.cache/tango -fast   # warm across runs
//	tango-char -list                     # list experiments and targets
//
// -cache-dir is the command-line spelling of the TANGO_CACHE_DIR environment
// variable; either attaches the persistent run cache in every mode.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"tango"
	"tango/internal/cli"
)

func main() {
	var (
		list       = flag.Bool("list", false, "list the reproducible experiments and registered targets, then exit")
		exp        = flag.String("exp", "", "experiment id (table1..table4, fig1..fig16), or all for every experiment in paper order")
		targets    = flag.String("targets", "", "comma-separated accelerator targets: sweep mode (see -list)")
		l1Sizes    = flag.String("l1", "", "sweep mode: comma-separated L1D sizes in KB (0 = bypass)")
		schedulers = flag.String("schedulers", "", "sweep mode: comma-separated warp schedulers (gto, lrr, tlv)")
		networks   = flag.String("networks", "", "comma-separated benchmark filter (default: the experiment's full set)")
		fast       = flag.Bool("fast", false, "use coarse simulation sampling")
		parallel   = flag.Int("parallel", 0, "worker goroutines for the simulation matrix or sweep cells (0 = one per CPU, 1 = serial)")
		format     = flag.String("format", "table", "output format: table, csv or json")
		out        = flag.String("out", "", "directory to also write <id>.txt/.csv per experiment, or sweep.{txt,csv,json} in sweep mode")
		cacheDir   = flag.String("cache-dir", os.Getenv("TANGO_CACHE_DIR"), "persistent run-cache directory (default $TANGO_CACHE_DIR)")
		cacheStats = flag.Bool("cache-stats", false, "sweep mode: print run-cache counters to stderr after the sweep")
	)
	flag.Parse()

	switch *format {
	case "table", "csv", "json":
	default:
		fatal(fmt.Errorf("unknown format %q (want table, csv or json)", *format))
	}

	if *list {
		fmt.Println("Reproducible experiments:")
		for _, e := range tango.Experiments() {
			fmt.Printf("  %-8s %s\n", e.ID, e.Title)
		}
		fmt.Println("\nAccelerator targets (-targets):")
		for _, t := range tango.Targets() {
			fmt.Printf("  %-8s %-5s %-14s %s (aliases: %s)\n",
				t.Name, t.Class, t.Role, t.Description, strings.Join(t.Aliases, ", "))
		}
		return
	}

	if *cacheDir != "" {
		// Sweeps and experiment sessions alike attach the directory the
		// variable names; an unusable one is reported here, not ignored.
		err := os.MkdirAll(*cacheDir, 0o755)
		if err == nil {
			err = os.Setenv("TANGO_CACHE_DIR", *cacheDir)
		}
		if err != nil {
			fatal(err)
		}
	}

	names := cli.SplitList(*networks)
	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			fatal(err)
		}
	}

	if *targets != "" {
		if *exp != "" {
			fatal(fmt.Errorf("-exp and -targets are mutually exclusive"))
		}
		l1kb, err := cli.ParseInts(*l1Sizes)
		if err != nil {
			fatal(err)
		}
		var stats tango.CacheStats
		cfg := tango.SweepConfig{
			Networks:     names,
			Targets:      cli.SplitList(*targets),
			L1SizesKB:    l1kb,
			Schedulers:   cli.SplitList(*schedulers),
			FastSampling: *fast,
			Parallelism:  *parallel,
		}
		if *cacheStats {
			cfg.CacheStats = &stats
		}
		ds, err := tango.Sweep(cfg)
		if err != nil {
			fatal(err)
		}
		text := ds.Table("sweep", "Characterization sweep over "+strings.Join(cfg.Targets, ", ")).String()
		csv := ds.CSV()
		enc, err := ds.JSON()
		if err != nil {
			fatal(err)
		}
		emit(*format, text, csv, enc)
		writeOut(*out, "sweep", map[string]string{".txt": text, ".csv": csv, ".json": string(enc)})
		if *cacheStats {
			fmt.Fprintf(os.Stderr,
				"cache: computes=%d disk_hits=%d disk_misses=%d disk_writes=%d disk_errors=%d mem_hits=%d mem_misses=%d\n",
				stats.Computes, stats.DiskHits, stats.DiskMisses, stats.DiskWrites, stats.DiskErrors,
				stats.RunHits, stats.RunMisses)
		}
		return
	}

	if *exp == "" {
		fmt.Fprintln(os.Stderr, "tango-char: -exp or -targets is required (use -list to see experiments and targets)")
		os.Exit(2)
	}

	opts := []tango.ExperimentOption{tango.WithExperimentParallelism(*parallel)}
	if len(names) > 0 {
		opts = append(opts, tango.WithNetworks(names...))
	}
	if *fast {
		opts = append(opts, tango.WithFastExperimentSampling())
	}

	// -exp all is the full report: every experiment framed by a ==== header
	// in table format.  Each Run first computes the cells it reads on the
	// session's workers.
	all := *exp == "all"
	exps := []tango.ExperimentInfo{{ID: *exp}}
	session := tango.NewExperimentSession(opts...)
	start := time.Now()
	if all {
		exps = tango.Experiments()
	}
	for _, e := range exps {
		expStart := time.Now()
		table, err := session.Run(e.ID)
		if err != nil {
			if all {
				err = fmt.Errorf("%s: %w", e.ID, err)
			}
			fatal(err)
		}
		enc, err := table.JSON()
		if err != nil {
			fatal(err)
		}
		text, csv := table.String(), table.CSV()
		framed := text
		if all {
			framed = fmt.Sprintf("==== %s: %s (%.1fs) ====\n%s\n", e.ID, e.Title, time.Since(expStart).Seconds(), text)
		}
		emit(*format, framed, csv, enc)
		writeOut(*out, e.ID, map[string]string{".txt": text, ".csv": csv})
	}
	if all && *format == "table" {
		fmt.Printf("completed %d experiments in %.1fs\n", len(exps), time.Since(start).Seconds())
	}
}

// emit prints one result in the selected format.
func emit(format, table, csv string, json []byte) {
	switch format {
	case "csv":
		fmt.Print(csv)
	case "json":
		fmt.Println(string(json))
	default:
		fmt.Print(table)
	}
}

// writeOut writes dir/base+suffix for every suffix; no directory, no files.
func writeOut(dir, base string, files map[string]string) {
	if dir == "" {
		return
	}
	for suffix, data := range files {
		if err := os.WriteFile(filepath.Join(dir, base+suffix), []byte(data), 0o644); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tango-char:", err)
	os.Exit(1)
}
