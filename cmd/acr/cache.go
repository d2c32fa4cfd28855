package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"acr/internal/evalstore"
)

// runCache administers a persistent evaluation store directory, whose
// store.log is one append-only log of framed entries:
//
//	acr cache stats  -cache-dir <dir>   entries, bytes, evicted and corrupt frames
//	acr cache verify -cache-dir <dir>   read+verify every frame; exit 1 if any fail
//	acr cache gc     -cache-dir <dir>   compact the log to its intact entries within
//	                                    the byte budget; delete an older layout's files
//
// All three see every entry other processes (repairs, daemons) appended.
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
		// A fresh Store has read nothing, so its corrupt counter is the
		// log's count of frames that fail verification.
		s := st.Stats()
		s.Corrupt = int64(st.Verify().Corrupt)
		if err := emit(s); err != nil {
			return err
		}
		if !*asJSON {
			fmt.Printf("store %s: %d entries, %d bytes, %d evicted, %d corrupt\n",
				*cacheDir, s.Entries, s.Bytes, s.Evicted, s.Corrupt)
		}
	case "verify":
		rep := st.Verify()
		if err := emit(rep); err != nil {
			return err
		}
		if !*asJSON {
			fmt.Printf("store %s: checked %d, intact %d, corrupt %d, unreadable %d\n",
				*cacheDir, rep.Checked, rep.Intact, rep.Corrupt, rep.Unreadable)
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
			fmt.Printf("store %s: %d entries, %d bytes after gc (evicted %d, purged %d corrupt)\n",
				*cacheDir, rep.Entries, rep.Bytes, rep.Evicted, rep.Purged)
		}
	default:
		return fmt.Errorf("unknown cache subcommand %q (want stats, verify, or gc)", sub)
	}
	return nil
}
