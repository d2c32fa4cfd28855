package service

import "acr/internal/journal"

// WithJournalHook returns cfg with hook run on every job's journal append,
// before the event mirror: crash tests use it to SIGKILL the daemon after
// N appends or to hold appends.
func WithJournalHook(cfg Config, hook journal.AppendHook) Config {
	cfg.journalHook = hook
	return cfg
}
