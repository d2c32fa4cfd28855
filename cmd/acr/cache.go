package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"acr/internal/evalstore"
)

// runCache administers a persistent evaluation store directory:
//
//	acr cache stats  -cache-dir <dir>   entry count, bytes, quarantine size
//	acr cache verify -cache-dir <dir>   read+verify every entry; exit 1 if any fail
//	acr cache gc     -cache-dir <dir>   enforce the byte budget, purge quarantine
//
// All three adopt entries written by other processes (repairs, daemons)
// since the directory was last scanned.
func runCache(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("cache requires a subcommand: stats, verify, or gc")
	}
	sub, args := args[0], args[1:]
	fs := flag.NewFlagSet("cache "+sub, flag.ExitOnError)
	cacheDir := fs.String("cache-dir", "", "persistent evaluation store directory (required)")
	cacheMax := fs.Int64("cache-max-bytes", 0, "store byte budget for gc (0 = 256 MiB)")
	asJSON := fs.Bool("json", false, "emit the report as JSON")
	fs.Parse(args)
	if *cacheDir == "" {
		return fmt.Errorf("cache %s requires -cache-dir", sub)
	}
	st, err := evalstore.Open(*cacheDir, *cacheMax)
	if err != nil {
		return fmt.Errorf("open evaluation store %s: %w", *cacheDir, err)
	}
	defer st.Close()

	emit := func(v any) error {
		if *asJSON {
			data, err := json.MarshalIndent(v, "", "  ")
			if err != nil {
				return err
			}
			fmt.Println(string(data))
		}
		return nil
	}
	switch sub {
	case "stats":
		s := st.Stats()
		if err := emit(s); err != nil {
			return err
		}
		if !*asJSON {
			fmt.Printf("store %s: %d entries, %d bytes, %d quarantined\n",
				st.Dir(), s.Entries, s.Bytes, s.Quarantined)
		}
	case "verify":
		rep := st.Verify()
		if err := emit(rep); err != nil {
			return err
		}
		if !*asJSON {
			fmt.Printf("store %s: checked %d, intact %d, corrupt %d, unreadable %d (%d bytes, %d quarantined)\n",
				st.Dir(), rep.Checked, rep.Intact, rep.Corrupt, rep.Unreadable, rep.Bytes, rep.Quarantined)
		}
		if rep.Corrupt+rep.Unreadable > 0 {
			os.Exit(1)
		}
	case "gc":
		rep := st.GC()
		if err := emit(rep); err != nil {
			return err
		}
		if !*asJSON {
			fmt.Printf("store %s: %d entries, %d bytes after gc (evicted %d, purged %d quarantined, freed %d bytes)\n",
				st.Dir(), rep.Entries, rep.Bytes, rep.Evicted, rep.Purged, rep.FreedBytes)
		}
	default:
		return fmt.Errorf("unknown cache subcommand %q (want stats, verify, or gc)", sub)
	}
	return nil
}
